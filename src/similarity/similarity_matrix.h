// Symmetric similarity matrix over n items (RDD partitions, datasets).
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace bohr::similarity {

/// Dense symmetric matrix with unit diagonal, held as n rows of n values;
/// set() writes both (i, j) and (j, i). Each row is its own allocation,
/// so however large n grows, no block is bigger than a row.
class SimilarityMatrix {
 public:
  explicit SimilarityMatrix(std::size_t n)
      : rows_(n, std::vector<double>(n, 0.0)) {
    for (std::size_t i = 0; i < n; ++i) rows_[i][i] = 1.0;
  }

  std::size_t size() const { return rows_.size(); }

  double get(std::size_t i, std::size_t j) const {
    BOHR_EXPECTS(i < size() && j < size());
    return rows_[i][j];
  }

  void set(std::size_t i, std::size_t j, double value) {
    BOHR_EXPECTS(i < size() && j < size());
    rows_[i][j] = value;
    rows_[j][i] = value;
  }

  /// Every row, rows()[i][j] == get(i, j): the feature vectors k-means
  /// clusters, read in place.
  const std::vector<std::vector<double>>& rows() const { return rows_; }

 private:
  std::vector<std::vector<double>> rows_;
};

}  // namespace bohr::similarity
