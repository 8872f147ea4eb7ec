// Property test for the bulk scheduler contract: for every scheduler type,
// fill_round() must agree bit-for-bit with per-edge active() -- across a
// sweep of rounds, edge counts (word-boundary shapes included), and seeds.
// This guards the engine's bitmap fast path against drift from the
// oblivious-schedule contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dual_graph.h"
#include "sim/adaptive.h"
#include "sim/scheduler.h"
#include "util/bitmap.h"
#include "util/rng.h"

namespace dg::sim {
namespace {

/// A star of `edges` unreliable spokes: the simplest graph with an exact
/// unreliable edge count (edge ids 0 .. edges-1 in insertion order).
graph::DualGraph unreliable_star(std::size_t edges) {
  graph::DualGraph g(edges + 1);
  for (graph::Vertex v = 1; v <= edges; ++v) {
    g.add_unreliable_edge(0, v);
  }
  g.finalize();
  return g;
}

/// Asserts fill_round == active over `rounds` rounds of the committed
/// scheduler.  Every fill starts from a poisoned bitmap (all words ~0), so
/// a fill that leaves stale words or tail bits shows: the bits at or beyond
/// `edges` in the last word must come out zero, and count() must equal the
/// number of edges active() reports.
void expect_bulk_matches_active(const LinkScheduler& sched, std::size_t edges,
                                Round rounds) {
  EdgeBitmap bulk(edges);
  for (Round t = 1; t <= rounds; ++t) {
    for (auto& w : bulk.words()) w = ~0ULL;
    sched.fill_round(t, bulk);
    std::size_t on = 0;
    for (graph::UnreliableEdgeId e = 0;
         e < static_cast<graph::UnreliableEdgeId>(edges); ++e) {
      const bool active = sched.active(e, t);
      ASSERT_EQ(bulk.test(e), active)
          << sched.name() << " diverges at edge " << e << ", round " << t
          << ", edges=" << edges;
      if (active) ++on;
    }
    if (edges % 64 != 0) {
      ASSERT_EQ(bulk.words().back() >> (edges % 64), 0ULL)
          << sched.name() << " leaves tail bits set, round " << t
          << ", edges=" << edges;
    }
    ASSERT_EQ(bulk.count(), on)
        << sched.name() << " round " << t << ", edges=" << edges;
  }
}

// Edge counts straddling the 64-bit word boundaries: empty tail, exact
// words, one-past and one-short, and a many-word shape.
const std::size_t kEdgeCounts[] = {1,   3,   63,  64,  65,
                                   127, 128, 130, 200, 4099};

TEST(SchedulerBitmap, ConstantMatchesActive) {
  for (bool include_all : {false, true}) {
    for (std::size_t edges : kEdgeCounts) {
      const auto g = unreliable_star(edges);
      ConstantScheduler sched(include_all);
      sched.commit(g, 1);
      expect_bulk_matches_active(sched, edges, 16);
    }
  }
}

TEST(SchedulerBitmap, BernoulliMatchesActive) {
  for (double p : {0.0, 0.15, 0.5, 0.85, 1.0}) {
    for (std::size_t edges : kEdgeCounts) {
      for (std::uint64_t seed : {7ULL, 99ULL, 0xdeadbeefULL}) {
        const auto g = unreliable_star(edges);
        BernoulliScheduler sched(p);
        sched.commit(g, seed);
        expect_bulk_matches_active(sched, edges, 64);
      }
    }
  }
}

TEST(SchedulerBitmap, FlickerMatchesActive) {
  for (auto [period, duty] : std::vector<std::pair<Round, Round>>{
           {1, 0}, {1, 1}, {7, 3}, {10, 10}, {64, 1}}) {
    for (std::size_t edges : kEdgeCounts) {
      for (std::uint64_t seed : {3ULL, 1234ULL}) {
        const auto g = unreliable_star(edges);
        FlickerScheduler sched(period, duty);
        sched.commit(g, seed);
        expect_bulk_matches_active(sched, edges, 3 * period + 5);
      }
    }
  }
}

TEST(SchedulerBitmap, BurstMatchesActive) {
  for (auto [epoch, p] : std::vector<std::pair<Round, double>>{
           {1, 0.5}, {5, 0.3}, {16, 0.0}, {16, 1.0}, {3, 0.9}}) {
    for (std::size_t edges : kEdgeCounts) {
      for (std::uint64_t seed : {11ULL, 0xabcULL}) {
        const auto g = unreliable_star(edges);
        BurstScheduler sched(epoch, p);
        sched.commit(g, seed);
        expect_bulk_matches_active(sched, edges, 4 * epoch + 3);
      }
    }
  }
}

TEST(SchedulerBitmap, AntiScheduleMatchesActive) {
  for (std::size_t edges : kEdgeCounts) {
    const auto g = unreliable_star(edges);
    AntiScheduleAdversary sched(
        [](Round t) { return t % 3 == 0 ? 0.75 : 0.1; }, 0.5);
    sched.commit(g, 0);
    expect_bulk_matches_active(sched, edges, 30);
  }
}

TEST(SchedulerBitmap, ExplicitMatchesActive) {
  for (std::size_t edges : kEdgeCounts) {
    // Pseudorandom fixed pattern of 5 rounds, cycled.
    std::vector<std::vector<bool>> pattern(5, std::vector<bool>(edges));
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (auto& row : pattern) {
      for (std::size_t e = 0; e < edges; ++e) {
        x = splitmix64(x);
        row[e] = (x & 1) != 0;
      }
    }
    const auto g = unreliable_star(edges);
    ExplicitScheduler sched(pattern);
    sched.commit(g, 0);
    expect_bulk_matches_active(sched, edges, 17);  // cycles past the pattern
  }
}

TEST(SchedulerBitmap, DefaultFillMatchesActiveForCustomScheduler) {
  // A scheduler that does NOT override fill_round exercises the base-class
  // bulk loop.
  class OddEdgesScheduler final : public LinkScheduler {
   public:
    void commit(const graph::DualGraph&, std::uint64_t) override {}
    bool active(graph::UnreliableEdgeId edge, Round round) const override {
      return (edge + static_cast<graph::UnreliableEdgeId>(round)) % 2 == 0;
    }
    std::string name() const override { return "odd-edges"; }
  };
  for (std::size_t edges : kEdgeCounts) {
    const auto g = unreliable_star(edges);
    OddEdgesScheduler sched;
    sched.commit(g, 0);
    expect_bulk_matches_active(sched, edges, 8);
  }
}

TEST(AdaptiveBitmap, JammerFillMatchesActive) {
  // The adaptive bulk path: TargetedJammer's fill_round must mirror its
  // per-edge active() after each plan_round.
  const std::size_t spokes = 70;  // crosses a word boundary
  graph::DualGraph g(spokes + 2);
  g.add_reliable_edge(0, 1);
  for (graph::Vertex v = 2; v < spokes + 2; ++v) {
    g.add_unreliable_edge(0, v);
  }
  g.finalize();
  TargetedJammer jammer(/*target=*/0);
  std::vector<bool> transmitting(g.size(), false);
  transmitting[1] = true;   // lone reliable transmitter -> jam
  transmitting[40] = true;  // a transmitting unreliable spoke
  jammer.plan_round(1, g, transmitting);
  Bitmap bulk(g.unreliable_edge_count());
  jammer.fill_round(bulk);
  std::size_t on = 0;
  for (graph::UnreliableEdgeId e = 0;
       e < static_cast<graph::UnreliableEdgeId>(g.unreliable_edge_count());
       ++e) {
    EXPECT_EQ(bulk.test(e), jammer.active(e)) << "edge " << e;
    if (bulk.test(e)) ++on;
  }
  EXPECT_EQ(on, 1u);  // exactly the one jam edge
}

}  // namespace
}  // namespace dg::sim
