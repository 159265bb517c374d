#include "workload/trace_io.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace bohr::workload {

namespace {

using olap::AttributeType;
using olap::Row;
using olap::RowTable;
using olap::Value;

bool needs_quoting(const std::string& s) {
  return s.find_first_of(",\"\n") != std::string::npos;
}

void write_field(std::ostream& out, const std::string& s) {
  if (!needs_quoting(s)) {
    out << s;
    return;
  }
  out << '"';
  for (const char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

void write_value(std::ostream& out, const Value& v) {
  struct Writer {
    std::ostream& out;
    void operator()(std::int64_t i) const { out << i; }
    void operator()(double d) const {
      // Shortest representation that round-trips exactly.
      char buf[64];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
      BOHR_CHECK(ec == std::errc());
      out.write(buf, end - buf);
    }
    void operator()(const std::string& s) const { write_field(out, s); }
  };
  std::visit(Writer{out}, v);
}

/// Splits one CSV line honoring quotes. Throws on unterminated quotes.
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  BOHR_CHECK(!quoted);  // unterminated quote
  fields.push_back(std::move(current));
  return fields;
}

/// Context of the record being parsed, so malformed-input errors point
/// at the offending row and field instead of just saying "stoll".
struct RecordContext {
  std::size_t record;     ///< 0-based data-record index (header excluded)
  std::size_t attribute;  ///< 0-based schema attribute index
};

[[noreturn]] void malformed(const RecordContext& ctx, const std::string& why) {
  throw ContractViolation("malformed trace record " +
                          std::to_string(ctx.record) + ", attribute " +
                          std::to_string(ctx.attribute) + ": " + why);
}

Value parse_value(const std::string& field, AttributeType type,
                  const RecordContext& ctx) {
  switch (type) {
    case AttributeType::Integer: {
      std::size_t consumed = 0;
      long long v = 0;
      try {
        v = std::stoll(field, &consumed);
      } catch (const std::exception&) {
        malformed(ctx, "not an integer: '" + field + "'");
      }
      if (consumed != field.size()) {
        malformed(ctx, "trailing garbage in integer: '" + field + "'");
      }
      return Value(static_cast<std::int64_t>(v));
    }
    case AttributeType::Real: {
      std::size_t consumed = 0;
      double v = 0.0;
      try {
        v = std::stod(field, &consumed);
      } catch (const std::exception&) {
        malformed(ctx, "not a real number: '" + field + "'");
      }
      if (consumed != field.size()) {
        malformed(ctx, "trailing garbage in real number: '" + field + "'");
      }
      return Value(v);
    }
    case AttributeType::Text:
      return Value(field);
  }
  malformed(ctx, "unknown attribute type byte " +
                     std::to_string(static_cast<int>(type)));
}

}  // namespace

void write_csv(std::ostream& out, const DatasetBundle& bundle) {
  BOHR_EXPECTS(out.good());
  const olap::Schema& schema = bundle.cube_spec.schema;
  out << "site";
  for (std::size_t a = 0; a < schema.attribute_count(); ++a) {
    out << ',';
    write_field(out, schema.attribute(a).name);
  }
  out << '\n';
  for (std::size_t site = 0; site < bundle.site_rows.size(); ++site) {
    const RowTable& rows = bundle.site_rows[site];
    for (std::size_t r = 0; r < rows.size(); ++r) {
      out << site;
      for (std::size_t a = 0; a < rows.attribute_count(); ++a) {
        out << ',';
        write_value(out, rows.value(a, r));
      }
      out << '\n';
    }
  }
  BOHR_CHECK(out.good());
}

DatasetBundle read_csv(std::istream& in, const DatasetBundle& reference,
                       std::size_t sites) {
  BOHR_EXPECTS(in.good());
  BOHR_EXPECTS(sites > 0);
  const olap::Schema& schema = reference.cube_spec.schema;

  std::string line;
  BOHR_CHECK(static_cast<bool>(std::getline(in, line)));
  const std::vector<std::string> header = split_csv_line(line);
  BOHR_CHECK(header.size() == schema.attribute_count() + 1);
  BOHR_CHECK(header[0] == "site");
  for (std::size_t a = 0; a < schema.attribute_count(); ++a) {
    BOHR_CHECK(header[a + 1] == schema.attribute(a).name);
  }

  DatasetBundle bundle;
  bundle.dataset_id = reference.dataset_id;
  bundle.kind = reference.kind;
  bundle.cube_spec = reference.cube_spec;
  bundle.query_types = reference.query_types;
  bundle.bytes_per_row = reference.bytes_per_row;
  bundle.site_rows.assign(sites, RowTable(schema));

  std::size_t record = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_line(line);
    if (fields.size() != schema.attribute_count() + 1) {
      throw ContractViolation(
          "malformed trace record " + std::to_string(record) + ": " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(schema.attribute_count() + 1));
    }
    const std::string& site_field = fields[0];
    const char* site_end = site_field.data() + site_field.size();
    std::size_t site = 0;
    const auto [ptr, ec] = std::from_chars(site_field.data(), site_end, site);
    if (ec != std::errc() || ptr != site_end) {
      throw ContractViolation("malformed trace record " +
                              std::to_string(record) +
                              ": bad site index '" + site_field + "'");
    }
    if (site >= sites) {
      throw ContractViolation("malformed trace record " +
                              std::to_string(record) + ": site index " +
                              site_field + " is not below " +
                              std::to_string(sites));
    }
    Row row;
    row.reserve(schema.attribute_count());
    for (std::size_t a = 0; a < schema.attribute_count(); ++a) {
      row.push_back(parse_value(fields[a + 1], schema.attribute(a).type,
                                RecordContext{record, a}));
    }
    bundle.site_rows[site].append(row);
    ++record;
  }
  return bundle;
}

}  // namespace bohr::workload
