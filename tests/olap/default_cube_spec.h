// A cube spec derived from a bare schema, so tests can build cubes
// without a workload generator.
#pragma once

#include "olap/cube_builder.h"

namespace bohr::olap {

/// Every non-measure attribute becomes a flat dimension; the first
/// measure attribute (if any) is the cube measure.
inline CubeSpec default_cube_spec(const Schema& schema) {
  CubeSpec spec;
  spec.schema = schema;
  for (std::size_t i = 0; i < schema.attribute_count(); ++i) {
    const AttributeDef& attr = schema.attribute(i);
    if (!attr.is_measure) {
      spec.dim_attrs.push_back(i);
      spec.dimensions.emplace_back(attr.name);
    } else if (!spec.measure_attr) {
      spec.measure_attr = i;
    }
  }
  return spec;
}

}  // namespace bohr::olap
