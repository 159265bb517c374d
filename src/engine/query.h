// Query descriptions executed by the engine.
#pragma once

#include <cstdint>
#include <string>

#include "olap/cube_store.h"

namespace bohr::engine {

/// The workload families of §8.1.
enum class QueryKind {
  Scan,         ///< big-data benchmark: selective scan
  Udf,          ///< big-data benchmark: simplified PageRank UDF
  Aggregation,  ///< big-data benchmark: group-by aggregation
  OlapSql,      ///< TPC-DS style business-intelligence aggregation
  TraceJob,     ///< Facebook-trace style mixed job
};

std::string to_string(QueryKind kind);

struct QuerySpec {
  std::string name;
  QueryKind kind = QueryKind::Aggregation;
  std::size_t dataset = 0;
  /// Which attribute subset (dimension cube) the query groups by.
  olap::QueryTypeId query_type = 0;
  /// Fraction of input rows the map stage emits (filter selectivity).
  double selectivity = 1.0;
  /// Per-record map cost relative to a plain scan (UDFs cost more).
  double compute_multiplier = 1.0;
  /// Wire size of one intermediate record.
  double intermediate_bytes_per_record = 64.0;
};

/// Default per-kind execution profile (selectivity / compute multiplier /
/// record size), matching the relative costs of §8.2's workloads.
QuerySpec default_spec_for(QueryKind kind);

}  // namespace bohr::engine
