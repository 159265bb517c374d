// Dataset schemas: which attributes exist, which are cube dimensions and
// which are measures.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace bohr::olap {

enum class AttributeType { Integer, Real, Text };

struct AttributeDef {
  std::string name;
  AttributeType type = AttributeType::Integer;
  /// Dimensions index cube cells; measures are aggregated inside cells.
  bool is_measure = false;
};

/// Ordered attribute list. Row values are positional against this order.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<AttributeDef> attributes);

  std::size_t attribute_count() const { return attributes_.size(); }
  const AttributeDef& attribute(std::size_t index) const;

 private:
  std::vector<AttributeDef> attributes_;
};

}  // namespace bohr::olap
