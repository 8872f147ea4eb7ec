// A spatial bucket index over an embedding: the one neighbour enumeration
// behind r-geographic wiring (graph/generators.cpp) and validation
// (graph::is_r_geographic).
//
// The Section 2 conditions only relate pairs within distance r, so neither
// building nor checking an r-geographic dual graph needs to look at far
// pairs.  The index buckets the points into square cells of side a little
// above the query radius, stored CSR-style (cell offsets + one member
// array); every pair within the radius then sits in the same cell or in
// two adjacent ones, and enumerating all close pairs costs
// O(n * local density) instead of the all-pairs O(n^2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace dg::geo {

class BucketIndex {
 public:
  /// Buckets `points` for queries of the given radius (> 0, finite).  The
  /// index keeps a reference: `points` must outlive it and stay unchanged.
  /// Points with a non-finite coordinate are left out; they are within no
  /// finite distance of anything.
  BucketIndex(const Embedding& points, double radius);
  BucketIndex(Embedding&&, double) = delete;  // would dangle

  /// Replaces the contents of `out` with every v > u such that
  /// distance(points[u], points[v]) <= radius, in ascending order.  The
  /// predicate is the same expression an all-pairs scan evaluates, so the
  /// result is exactly that scan's row for u.
  void within_above(std::uint32_t u, std::vector<std::uint32_t>& out) const;

  double cell_side() const noexcept { return side_; }
  std::size_t cell_count() const noexcept { return cols_ * rows_; }

 private:
  std::size_t col_of(double x) const noexcept;
  std::size_t row_of(double y) const noexcept;

  const Embedding& points_;
  double radius_;
  double side_ = 1.0;
  double x0_ = 0.0;
  double y0_ = 0.0;
  std::size_t cols_ = 1;
  std::size_t rows_ = 1;
  // Members of cell c = row * cols_ + col are members_[offsets_[c] ..
  // offsets_[c + 1]), ascending.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> members_;
};

}  // namespace dg::geo
