#include "engine/query.h"

namespace bohr::engine {

std::string to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::Scan:
      return "scan";
    case QueryKind::Udf:
      return "udf";
    case QueryKind::Aggregation:
      return "aggregation";
    case QueryKind::OlapSql:
      return "olap-sql";
    case QueryKind::TraceJob:
      return "trace-job";
  }
  return "unknown";
}

QuerySpec default_spec_for(QueryKind kind) {
  QuerySpec spec;
  spec.kind = kind;
  spec.name = to_string(kind);
  switch (kind) {
    case QueryKind::Scan:
      // Selective predicate, cheap per record, small projected records.
      spec.selectivity = 0.35;
      spec.compute_multiplier = 1.0;
      spec.intermediate_bytes_per_record = 48.0;
      break;
    case QueryKind::Udf:
      // PageRank-style UDF: every record contributes, expensive map.
      spec.selectivity = 1.0;
      spec.compute_multiplier = 6.0;
      spec.intermediate_bytes_per_record = 72.0;
      break;
    case QueryKind::Aggregation:
      spec.selectivity = 1.0;
      spec.compute_multiplier = 1.6;
      spec.intermediate_bytes_per_record = 64.0;
      break;
    case QueryKind::OlapSql:
      // TPC-DS style: moderately selective star-join aggregation.
      spec.selectivity = 0.6;
      spec.compute_multiplier = 2.2;
      spec.intermediate_bytes_per_record = 96.0;
      break;
    case QueryKind::TraceJob:
      spec.selectivity = 0.8;
      spec.compute_multiplier = 2.8;
      spec.intermediate_bytes_per_record = 80.0;
      break;
  }
  return spec;
}

}  // namespace bohr::engine
