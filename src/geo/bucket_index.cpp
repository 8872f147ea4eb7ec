#include "geo/bucket_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.h"

namespace dg::geo {

namespace {

bool is_finite(const Point& p) noexcept {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

// Cells are wider than the query radius by this relative margin, so the
// index never depends on float luck at a cell edge.  In exact arithmetic a
// pair within the radius is at most radius / side ~ 1 - kMargin cell widths
// apart along each axis.  The computed cell coordinate (x - x0) / side is
// off by a few ulps of a value of at most cols_ (resp. rows_), both capped
// at ~2n below, so two coordinates drift apart by at most ~2e-15 * n cell
// widths: for any n that fits a 32-bit vertex id that is an order of
// magnitude below kMargin, and a pair whose computed distance passes the
// radius test never lands two cells apart.
constexpr double kMargin = 1e-4;

}  // namespace

BucketIndex::BucketIndex(const Embedding& points, double radius)
    : points_(points), radius_(radius) {
  DG_EXPECTS(radius > 0.0 && std::isfinite(radius));
  DG_EXPECTS(points.size() < std::numeric_limits<std::uint32_t>::max());
  double x1 = 0.0;
  double y1 = 0.0;
  bool any = false;
  for (const Point& p : points) {
    if (!is_finite(p)) continue;
    if (!any) {
      x0_ = x1 = p.x;
      y0_ = y1 = p.y;
      any = true;
    }
    x0_ = std::min(x0_, p.x);
    x1 = std::max(x1, p.x);
    y0_ = std::min(y0_, p.y);
    y1 = std::max(y1, p.y);
  }
  const double w = x1 - x0_;
  const double h = y1 - y0_;
  DG_EXPECTS(std::isfinite(w) && std::isfinite(h));
  // Keep the cell array O(n): a sparse or elongated point set gets coarser
  // cells, which only adds candidates to a query, never drops one.
  const double cap = 2.0 * static_cast<double>(points.size()) + 16.0;
  side_ = std::max({radius * (1.0 + kMargin), w / cap, h / cap,
                    std::sqrt(w * h / cap)});
  cols_ = static_cast<std::size_t>(w / side_) + 1;
  rows_ = static_cast<std::size_t>(h / side_) + 1;

  // Counting sort by cell; vertices are placed in ascending order, so each
  // cell's member run is ascending.
  offsets_.assign(cols_ * rows_ + 1, 0);
  const auto cell_of = [this](const Point& p) {
    return row_of(p.y) * cols_ + col_of(p.x);
  };
  for (const Point& p : points) {
    if (is_finite(p)) ++offsets_[cell_of(p) + 1];
  }
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) {
    offsets_[c + 1] += offsets_[c];
  }
  members_.resize(offsets_.back());
  std::vector<std::uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  const auto n = static_cast<std::uint32_t>(points.size());
  for (std::uint32_t u = 0; u < n; ++u) {
    if (is_finite(points[u])) members_[next[cell_of(points[u])]++] = u;
  }
}

std::size_t BucketIndex::col_of(double x) const noexcept {
  return std::min(cols_ - 1, static_cast<std::size_t>((x - x0_) / side_));
}

std::size_t BucketIndex::row_of(double y) const noexcept {
  return std::min(rows_ - 1, static_cast<std::size_t>((y - y0_) / side_));
}

void BucketIndex::within_above(std::uint32_t u,
                               std::vector<std::uint32_t>& out) const {
  DG_EXPECTS(u < points_.size());
  out.clear();
  const Point& p = points_[u];
  if (!is_finite(p)) return;
  const std::size_t col = col_of(p.x);
  const std::size_t row = row_of(p.y);
  const std::size_t col_lo = col > 0 ? col - 1 : 0;
  const std::size_t col_hi = std::min(col + 1, cols_ - 1);
  const std::size_t row_hi = std::min(row + 1, rows_ - 1);
  for (std::size_t r = row > 0 ? row - 1 : 0; r <= row_hi; ++r) {
    // Cells col_lo..col_hi of one row are adjacent in CSR order, so their
    // members form one contiguous run.
    const std::uint32_t* it = members_.data() + offsets_[r * cols_ + col_lo];
    const std::uint32_t* end =
        members_.data() + offsets_[r * cols_ + col_hi + 1];
    for (; it != end; ++it) {
      const std::uint32_t v = *it;
      if (v > u && distance(p, points_[v]) <= radius_) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
}

}  // namespace dg::geo
