// Symmetric similarity matrix over n items (RDD partitions, datasets).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace bohr::similarity {

/// Dense symmetric matrix with unit diagonal; stores the upper triangle.
class SimilarityMatrix {
 public:
  explicit SimilarityMatrix(std::size_t n) : n_(n), data_(n * (n + 1) / 2, 0.0) {
    for (std::size_t i = 0; i < n; ++i) set(i, i, 1.0);
  }

  std::size_t size() const { return n_; }

  double get(std::size_t i, std::size_t j) const {
    BOHR_EXPECTS(i < n_ && j < n_);
    return data_[index(i, j)];
  }

  void set(std::size_t i, std::size_t j, double value) {
    BOHR_EXPECTS(i < n_ && j < n_);
    data_[index(i, j)] = value;
  }

  /// Row i as a dense vector (feature representation for clustering).
  /// Cells (j, i) for j < i are column i of the triangle, one cell per
  /// stored row, n - j - 1 apart; cells (i, j) for j >= i are the
  /// contiguous tail of stored row i.
  std::vector<double> row(std::size_t i) const {
    BOHR_EXPECTS(i < n_);
    std::vector<double> out(n_);
    std::size_t at = i;  // index(0, i)
    for (std::size_t j = 0; j < i; ++j) {
      out[j] = data_[at];
      at += n_ - j - 1;
    }
    const auto tail = data_.begin() + static_cast<std::ptrdiff_t>(at);
    std::copy(tail, tail + static_cast<std::ptrdiff_t>(n_ - i),
              out.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }

 private:
  std::size_t index(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    // Upper-triangle row-major: row i starts after i rows of lengths n, n-1, ...
    return i * n_ - i * (i - 1) / 2 + (j - i);
  }

  std::size_t n_;
  std::vector<double> data_;
};

}  // namespace bohr::similarity
