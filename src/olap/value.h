// Attribute values for records stored in OLAP cubes.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"

namespace bohr::olap {

/// One attribute value of a record. Analytics logs carry integers
/// (timestamps, counters), reals (scores, revenue), and strings (URLs,
/// IPs, product names).
using Value = std::variant<std::int64_t, double, std::string>;

/// Hashed identifier of a dimension member ("Tokyo", year 2014, url-17).
/// Cube cells are addressed by one MemberId per dimension.
using MemberId = std::uint64_t;

/// Stable hash of a value, used to map it into a dimension member: the
/// one definition per type, which value_to_member(const Value&) and the
/// typed row columns (olap/row_table.h) both dispatch to.
inline MemberId value_to_member(std::int64_t i) {
  return mix64(static_cast<std::uint64_t>(i) ^ 0x1234ULL);
}
inline MemberId value_to_member(double d) {
  // Quantize reals so near-equal measures land in the same member.
  return mix64(static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(d * 1000.0)) ^
               0x5678ULL);
}
inline MemberId value_to_member(const std::string& s) { return fnv1a64(s); }
inline MemberId value_to_member(const Value& v) {
  return std::visit([](const auto& x) { return value_to_member(x); }, v);
}

/// Numeric view of a value for measures; strings hash to a stable number
/// so aggregation stays well-defined. One definition per type, as above.
inline double value_to_double(std::int64_t i) { return static_cast<double>(i); }
inline double value_to_double(double d) { return d; }
inline double value_to_double(const std::string& s) {
  return static_cast<double>(fnv1a64(s) % 1000);
}
inline double value_to_double(const Value& v) {
  return std::visit([](const auto& x) { return value_to_double(x); }, v);
}

/// One record as input to RowTable::append: one value per schema
/// attribute.
using Row = std::vector<Value>;

}  // namespace bohr::olap
