// Wall-clock timing for the overhead measurements (Tables 2-5 report real
// CPU time of similarity checking and LP solving, not simulated time).
#pragma once

#include <chrono>

namespace bohr {

/// Measures elapsed wall-clock seconds since construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace bohr
