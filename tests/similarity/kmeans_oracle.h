// K-means over dense points: the differential oracle for
// similarity::kmeans.
//
// Lloyd's algorithm with k-means++ seeding, serial, with every distance
// a dense simd::squared_distance over all dimensions and every update a
// dense sum. similarity::kmeans must match it bit for bit: same
// assignments, same iteration count, same inertia and centroid bits.
#pragma once

#include <span>
#include <vector>

#include "similarity/kmeans.h"

namespace bohr::similarity::oracle {

/// Same contract as similarity::kmeans.
KMeansResult kmeans(std::span<const std::vector<double>> points,
                    const KMeansParams& params);

}  // namespace bohr::similarity::oracle
