#include "phys/extract.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/rng.h"

namespace dg::phys {

namespace {

/// The least delivery count c in [0, contexts] whose frequency
/// double(c) / double(contexts) is >= `threshold`, or contexts + 1 when
/// none is.  The frequency is non-decreasing in c, so "frequency clears the
/// threshold" is exactly "count >= least_count".
std::size_t least_count(double threshold, std::size_t contexts) {
  std::size_t c = 0;
  while (c <= contexts &&
         !(static_cast<double>(c) / static_cast<double>(contexts) >=
           threshold)) {
    ++c;
  }
  return c;
}

/// One sampled interference context for a receiver whose other-node gains
/// are `gains`: node i transmits iff its draw is below `coin` (chance(p),
/// see Rng::chance_threshold), and tx delivers iff its signal clears beta
/// against noise plus the drawn gains (with beta >= 1, clearing is
/// equivalent to delivering: no second sender can clear simultaneously).
/// The drawn gains are summed in ascending index order from 0.0 -- the very
/// sum a chance-gated `+=` over all gains accumulates -- so the verdict is
/// bit-identical to it.  `picked` holds at least gains.size() slots.
bool context_delivers(const SinrParams& sinr, double signal_gain,
                      const std::vector<double>& gains, std::uint64_t coin,
                      Rng& rng, std::vector<std::uint32_t>& picked) {
  std::size_t k = 0;
  for (std::uint32_t i = 0; i < gains.size(); ++i) {
    picked[k] = i;
    k += rng.bits() < coin ? 1 : 0;
  }
  double interference = 0.0;
  for (std::size_t j = 0; j < k; ++j) interference += gains[picked[j]];
  return signal_gain >= sinr.beta * (sinr.noise + interference);
}

}  // namespace

SinrExtraction extract_dual_graph(const geo::Embedding& embedding,
                                  const SinrExtractParams& params,
                                  std::uint64_t seed) {
  const auto n = static_cast<graph::Vertex>(embedding.size());
  DG_EXPECTS(n >= 1);
  DG_EXPECTS(params.contexts >= 1);
  DG_EXPECTS(params.sinr.beta >= 1.0);
  DG_EXPECTS(params.reliable_threshold >= params.unreliable_threshold);

  const double range = params.sinr.max_signal_range();
  const double range_sq = range * range;

  enum class Class : std::uint8_t { kAbsent, kUnreliable, kReliable };
  // A pair's class as a function of its two directions' delivery counts:
  // reliable when both reach c_rel, unreliable when either reaches
  // c_unrel.  Non-decreasing in each count.
  const std::size_t contexts = params.contexts;
  const std::size_t c_rel = least_count(params.reliable_threshold, contexts);
  const std::size_t c_unrel =
      least_count(params.unreliable_threshold, contexts);
  const auto classify = [&](std::size_t c1, std::size_t c2) {
    if (c1 >= c_rel && c2 >= c_rel) return Class::kReliable;
    if (c1 >= c_unrel || c2 >= c_unrel) return Class::kUnreliable;
    return Class::kAbsent;
  };

  // chance(p) draws nothing for p <= 0 or p >= 1: every context then sees
  // no interferer or all of them, and one verdict stands for all contexts.
  const double p = params.tx_probability;
  const bool sampled = p > 0.0 && p < 1.0;
  const std::uint64_t coin = sampled ? Rng::chance_threshold(p) : 0;

  struct Pair {
    graph::Vertex u, v;
    Class cls;
  };
  std::vector<Pair> edges;

  ExtractionStats stats;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double min_nonreliable_dist = kInf;  // over ALL pairs not classified reliable
  double max_edge_dist = 0.0;          // over pairs that got an edge

  // Scratch: gains at the receiver from every node other than the pair
  // itself (rebuilt per direction), and one context's drawn indices.
  std::vector<double> other_gains;
  other_gains.reserve(n);
  std::vector<std::uint32_t> picked(n);

  // Deliveries tx -> rx over the contexts, stopping before a context once
  // `decided(count, contexts_left)` holds; returns {count, contexts_left}.
  const auto count_deliveries = [&](graph::Vertex rx, graph::Vertex tx,
                                    double signal_gain, Rng& rng,
                                    auto decided) {
    using Counted = std::pair<std::size_t, std::size_t>;
    other_gains.clear();
    for (graph::Vertex w = 0; w < n; ++w) {
      if (w == rx || w == tx) continue;
      other_gains.push_back(path_gain(
          params.sinr, geo::distance_sq(embedding[rx], embedding[w])));
    }
    if (!sampled) {
      double interference = 0.0;
      if (p >= 1.0) {
        for (double g : other_gains) interference += g;
      }
      const bool delivers =
          signal_gain >=
          params.sinr.beta * (params.sinr.noise + interference);
      return Counted{delivers ? contexts : 0, 0};
    }
    std::size_t count = 0;
    std::size_t left = contexts;
    while (left > 0 && !decided(count, left)) {
      if (context_delivers(params.sinr, signal_gain, other_gains, coin, rng,
                           picked)) {
        ++count;
      }
      --left;
    }
    return Counted{count, left};
  };

  std::uint64_t pair_index = 0;
  for (graph::Vertex u = 0; u < n; ++u) {
    for (graph::Vertex v = u + 1; v < n; ++v) {
      const double d2 = geo::distance_sq(embedding[u], embedding[v]);
      const double d = std::sqrt(d2);
      if (d2 > range_sq) {
        // Beyond decodable range: absent by definition, no sampling needed.
        min_nonreliable_dist = std::min(min_nonreliable_dist, d);
        continue;
      }
      ++stats.candidate_pairs;
      // One private stream per pair keeps the extraction deterministic and
      // independent of scan order.  Nothing reads it after the pair is
      // classified, so sampling stops as soon as the class is fixed: the
      // class is monotone in both counts, so it is fixed once the least and
      // the greatest counts still reachable give the same class.  Direction
      // 2 reads the stream after all of direction 1's draws, so direction 1
      // stops early only when direction 2 cannot matter.
      Rng rng(seed, pair_index++);
      const double signal_gain = path_gain(params.sinr, d2);
      const auto dir1 = count_deliveries(
          u, v, signal_gain, rng, [&](std::size_t c, std::size_t left) {
            return classify(c, 0) == classify(c + left, contexts);
          });
      const std::size_t c1 = dir1.first;
      Class cls = classify(c1, 0);
      if (cls != classify(c1 + dir1.second, contexts)) {
        const std::size_t c2 =
            count_deliveries(v, u, signal_gain, rng,
                             [&](std::size_t c, std::size_t left) {
                               return classify(c1, c) ==
                                      classify(c1, c + left);
                             })
                .first;
        cls = classify(c1, c2);
      }
      if (cls == Class::kReliable) ++stats.reliable_edges;
      if (cls == Class::kUnreliable) ++stats.unreliable_edges;
      if (cls != Class::kReliable) {
        min_nonreliable_dist = std::min(min_nonreliable_dist, d);
      }
      if (cls != Class::kAbsent) {
        max_edge_dist = std::max(max_edge_dist, d);
        edges.push_back(Pair{u, v, cls});
      }
    }
  }

  // Rescale so the r-geographic conditions hold structurally (see header):
  // unit distance lands just below the closest non-reliable pair.  The
  // relative margins dominate any float error when is_r_geographic
  // recomputes distances from the scaled coordinates.
  constexpr double kMargin = 1e-9;
  if (min_nonreliable_dist < kInf) {
    DG_EXPECTS(min_nonreliable_dist > 0.0);  // coincident non-reliable pair
    stats.scale = (1.0 + kMargin) / min_nonreliable_dist;
  }
  stats.r = std::max(1.0, max_edge_dist * stats.scale * (1.0 + kMargin));

  graph::DualGraph g(n);
  for (const Pair& e : edges) {
    if (e.cls == Class::kReliable) {
      g.add_reliable_edge(e.u, e.v);
    } else {
      g.add_unreliable_edge(e.u, e.v);
    }
  }
  geo::Embedding scaled;
  scaled.reserve(n);
  for (const geo::Point& p : embedding) {
    scaled.push_back(geo::Point{p.x * stats.scale, p.y * stats.scale});
  }
  g.set_embedding(std::move(scaled), stats.r);
  g.finalize();
  return SinrExtraction{std::move(g), stats};
}

}  // namespace dg::phys
