#include "olap/schema.h"

#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace bohr::olap {

Schema::Schema(std::vector<AttributeDef> attributes)
    : attributes_(std::move(attributes)) {
  std::unordered_set<std::string> names;
  for (const auto& a : attributes_) {
    BOHR_EXPECTS(!a.name.empty());
    const bool inserted = names.insert(a.name).second;
    BOHR_EXPECTS(inserted);  // attribute names must be unique
  }
}

const AttributeDef& Schema::attribute(std::size_t index) const {
  BOHR_EXPECTS(index < attributes_.size());
  return attributes_[index];
}

}  // namespace bohr::olap
