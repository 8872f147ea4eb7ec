// Tests for the physical-layer channel subsystem (src/phys/): the SINR
// reception rule and its grid acceleration, the dual-graph extractor's
// Section 2 guarantees, the DualGraphChannel seam (the explicit-channel
// engine constructor must behave exactly like the scheduler constructor),
// and the ChannelModel frontier contract every channel keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "lb/simulation.h"
#include "phys/channel.h"
#include "phys/dual_graph_channel.h"
#include "phys/extract.h"
#include "phys/sinr.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dg::phys {
namespace {

graph::DualGraph edgeless(std::size_t n) {
  graph::DualGraph g(n);
  g.finalize();
  return g;
}

geo::Embedding random_embedding(std::size_t n, double side, Rng& rng) {
  geo::Embedding emb;
  emb.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    emb.push_back(geo::Point{rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return emb;
}

/// Runs one SinrChannel round directly over a full activity mask: heard
/// words per vertex.
std::vector<std::uint64_t> sinr_round(const SinrParams& params,
                                      const geo::Embedding& emb,
                                      const std::vector<graph::Vertex>& tx) {
  const auto g = edgeless(emb.size());
  SinrChannel channel(params, emb);
  channel.bind(g, /*master_seed=*/1);
  Bitmap transmitting(emb.size());
  for (graph::Vertex v : tx) transmitting.set(v);
  std::vector<std::uint64_t> heard(emb.size(), 0);
  Bitmap everyone(emb.size());
  everyone.set_all();  // the full mask: every receiver's verdict
  channel.compute_round(1, transmitting, heard, everyone);
  return heard;
}

/// The semantic SINR rule, computed naively with *exact* interference (no
/// far-field aggregation): sender of the delivery at u, if any.
std::optional<graph::Vertex> exact_delivery(
    const SinrParams& params, const geo::Embedding& emb,
    const std::vector<graph::Vertex>& tx, graph::Vertex u) {
  double total = 0.0;
  for (graph::Vertex v : tx) {
    total += path_gain(params, geo::distance_sq(emb[u], emb[v]));
  }
  std::optional<graph::Vertex> winner;
  int clears = 0;
  for (graph::Vertex v : tx) {
    const double gain = path_gain(params, geo::distance_sq(emb[u], emb[v]));
    if (gain >= params.beta * (params.noise + total - gain)) {
      ++clears;
      winner = v;
    }
  }
  return clears == 1 ? winner : std::nullopt;
}

/// Extracts (receiver -> sender) deliveries from heard words.
std::map<graph::Vertex, graph::Vertex> deliveries(
    const std::vector<std::uint64_t>& heard) {
  std::map<graph::Vertex, graph::Vertex> out;
  for (graph::Vertex u = 0; u < static_cast<graph::Vertex>(heard.size());
       ++u) {
    if (static_cast<std::uint32_t>(heard[u]) == 1) {
      out[u] = static_cast<graph::Vertex>(heard[u] >> 32);
    }
  }
  return out;
}

TEST(SinrParams, MaxSignalRangeMatchesClosedForm) {
  SinrParams p;  // alpha=3, beta=2, noise=0.1, power=1
  EXPECT_NEAR(p.max_signal_range(), std::cbrt(1.0 / 0.2), 1e-12);
  // At the range boundary an isolated sender exactly meets beta * noise.
  const double gain =
      path_gain(p, p.max_signal_range() * p.max_signal_range());
  EXPECT_NEAR(gain, p.beta * p.noise, 1e-9);
}

TEST(SinrChannel, IsolatedPairWithinRangeAlwaysDelivers) {
  SinrParams params;
  for (double d : {0.1, 0.5, 1.0, 1.5, params.max_signal_range() * 0.999}) {
    const geo::Embedding emb{{0.0, 0.0}, {d, 0.0}};
    const auto heard = sinr_round(params, emb, {0});
    EXPECT_EQ(deliveries(heard), (std::map<graph::Vertex, graph::Vertex>{
                                     {1, 0}}))
        << "distance " << d;
  }
}

TEST(SinrChannel, IsolatedPairBeyondRangeNeverDelivers) {
  SinrParams params;
  for (double d : {params.max_signal_range() * 1.001, 3.0, 10.0}) {
    const geo::Embedding emb{{0.0, 0.0}, {d, 0.0}};
    const auto heard = sinr_round(params, emb, {0});
    EXPECT_TRUE(deliveries(heard).empty()) << "distance " << d;
  }
}

TEST(SinrChannel, TransmittersHearNothing) {
  const geo::Embedding emb{{0.0, 0.0}, {0.5, 0.0}};
  const auto heard = sinr_round(SinrParams{}, emb, {0, 1});
  EXPECT_TRUE(deliveries(heard).empty());
}

// Monotonicity: adding a transmitter w never creates a delivery from any
// other sender (its interference only grows every receiver's denominator;
// with beta >= 1 at most one sender can clear, so no knock-out effects can
// mint a new delivery either).  Randomized sweep over embeddings and
// transmit sets.
TEST(SinrChannel, AddingInterfererNeverCreatesDelivery) {
  SinrParams params;
  Rng rng(2026);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n = 30;
    const auto emb = random_embedding(n, /*side=*/6.0, rng);
    std::vector<graph::Vertex> tx;
    for (graph::Vertex v = 1; v < n; ++v) {
      if (rng.chance(0.3)) tx.push_back(v);
    }
    const auto w = static_cast<graph::Vertex>(0);  // never in tx
    auto with_w = tx;
    with_w.push_back(w);

    const auto before = deliveries(sinr_round(params, emb, tx));
    const auto after = deliveries(sinr_round(params, emb, with_w));
    for (const auto& [u, from] : after) {
      if (from == w) continue;  // w itself may be decodable: that is fine
      const auto it = before.find(u);
      ASSERT_TRUE(it != before.end() && it->second == from)
          << "iter " << iter << ": adding interferer " << w
          << " created delivery " << from << " -> " << u;
    }
  }
}

// In a compact deployment every occupied cell is within the near radius of
// every other, the far-field aggregate is empty, and the grid-accelerated
// channel must agree with the naive exact rule verbatim.
TEST(SinrChannel, MatchesExactRuleWhenAllCellsNear) {
  SinrParams params;
  Rng rng(7);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t n = 16;
    const auto emb = random_embedding(n, /*side=*/1.0, rng);
    std::vector<graph::Vertex> tx;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (rng.chance(0.4)) tx.push_back(v);
    }
    const auto heard = sinr_round(params, emb, tx);
    const auto got = deliveries(heard);
    for (graph::Vertex u = 0; u < n; ++u) {
      if (std::find(tx.begin(), tx.end(), u) != tx.end()) continue;
      const auto want = exact_delivery(params, emb, tx, u);
      const auto it = got.find(u);
      if (want.has_value()) {
        ASSERT_TRUE(it != got.end() && it->second == *want) << "u=" << u;
      } else {
        ASSERT_TRUE(it == got.end()) << "u=" << u;
      }
    }
  }
}

// In spread-out deployments the far-field term over-estimates interference
// (min_cell_distance is a lower bound on every far pair distance), so the
// accelerated channel is conservative: everything it delivers, the exact
// rule delivers too.
TEST(SinrChannel, ConservativeAgainstExactRuleOnSpreadDeployments) {
  SinrParams params;
  Rng rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 60;
    const auto emb = random_embedding(n, /*side=*/12.0, rng);
    std::vector<graph::Vertex> tx;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (rng.chance(0.25)) tx.push_back(v);
    }
    const auto got = deliveries(sinr_round(params, emb, tx));
    for (const auto& [u, from] : got) {
      const auto want = exact_delivery(params, emb, tx, u);
      ASSERT_TRUE(want.has_value() && *want == from)
          << "channel delivered " << from << " -> " << u
          << " but the exact rule does not";
    }
  }
}

TEST(ExtractDualGraph, TwoCloseNodesBecomeReliable) {
  const geo::Embedding emb{{0.0, 0.0}, {0.3, 0.0}};
  const auto ext = extract_dual_graph(emb, SinrExtractParams{}, 1);
  EXPECT_EQ(ext.stats.reliable_edges, 1u);
  EXPECT_TRUE(ext.graph.has_reliable_edge(0, 1));
}

TEST(ExtractDualGraph, FarApartNodesStayDisconnected) {
  const geo::Embedding emb{{0.0, 0.0}, {50.0, 0.0}};
  const auto ext = extract_dual_graph(emb, SinrExtractParams{}, 1);
  EXPECT_EQ(ext.stats.reliable_edges, 0u);
  EXPECT_EQ(ext.stats.unreliable_edges, 0u);
  EXPECT_FALSE(ext.graph.has_gprime_edge(0, 1));
}

TEST(ExtractDualGraph, OutputValidatesSectionTwoConstraints) {
  Rng rng(3);
  for (int iter = 0; iter < 5; ++iter) {
    const auto emb = random_embedding(40, /*side=*/5.0, rng);
    const auto ext =
        extract_dual_graph(emb, SinrExtractParams{}, /*seed=*/100 + iter);
    const auto& g = ext.graph;
    ASSERT_TRUE(g.embedding().has_value());
    EXPECT_TRUE(graph::is_r_geographic(g, *g.embedding(), g.r()))
        << "iter " << iter << " scale=" << ext.stats.scale
        << " r=" << ext.stats.r;
    EXPECT_GE(g.r(), 1.0);
    EXPECT_EQ(g.unreliable_edge_count(), ext.stats.unreliable_edges);
    // A 40-node deployment in a 5x5 square is dense enough that the
    // extraction must find some structure.
    EXPECT_GT(ext.stats.candidate_pairs, 0u);
    EXPECT_GT(ext.stats.reliable_edges, 0u);
  }
}

TEST(ExtractDualGraph, DeterministicForFixedSeed) {
  Rng rng(9);
  const auto emb = random_embedding(30, 4.0, rng);
  const auto a = extract_dual_graph(emb, SinrExtractParams{}, 42);
  const auto b = extract_dual_graph(emb, SinrExtractParams{}, 42);
  EXPECT_EQ(a.stats.reliable_edges, b.stats.reliable_edges);
  EXPECT_EQ(a.stats.unreliable_edges, b.stats.unreliable_edges);
  EXPECT_EQ(a.stats.scale, b.stats.scale);
  for (graph::Vertex u = 0; u < 30; ++u) {
    for (graph::Vertex v = u + 1; v < 30; ++v) {
      EXPECT_EQ(a.graph.has_reliable_edge(u, v),
                b.graph.has_reliable_edge(u, v));
      EXPECT_EQ(a.graph.has_gprime_edge(u, v),
                b.graph.has_gprime_edge(u, v));
    }
  }
}

TEST(ExtractDualGraph, ExtractedGraphRunsTheExistingStack) {
  Rng rng(5);
  const auto emb = random_embedding(24, 3.0, rng);
  const auto ext = extract_dual_graph(emb, SinrExtractParams{}, 7);
  // The extracted graph must be a drop-in for the seed/LB substrate: the
  // engine runs it with scripted processes without tripping any contract.
  const auto ids = sim::assign_ids(ext.graph.size(), 1);
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (std::size_t v = 0; v < ext.graph.size(); ++v) {
    procs.push_back(std::make_unique<test::ScriptProcess>(
        ids[v], std::map<sim::Round, std::uint64_t>{
                    {static_cast<sim::Round>(1 + (v % 3)), v}}));
  }
  sim::BernoulliScheduler sched(0.5);
  sim::Engine engine(ext.graph, sched, std::move(procs), 99);
  engine.run_rounds(5);
  EXPECT_EQ(engine.round(), 5);
}

// ---- the sample-everything extraction: the oracle for the early stop ----

enum class RefClass : std::uint8_t { kAbsent, kUnreliable, kReliable };

struct ReferenceExtraction {
  ExtractionStats stats;
  std::map<std::pair<graph::Vertex, graph::Vertex>, RefClass> edges;
};

/// extract_dual_graph's classification and rescale in their plainest
/// form: every context of both directions sampled, one rng.chance(p) per
/// other node, frequencies compared with the thresholds.  The extractor's
/// integer coin and early stop must match it bit for bit.
ReferenceExtraction reference_extract(const geo::Embedding& embedding,
                                      const SinrExtractParams& params,
                                      std::uint64_t seed) {
  const auto delivery_frequency = [&](double signal_gain,
                                      const std::vector<double>& other_gains,
                                      Rng& rng) {
    std::size_t delivered = 0;
    for (std::size_t k = 0; k < params.contexts; ++k) {
      double interference = 0.0;
      for (double g : other_gains) {
        if (rng.chance(params.tx_probability)) interference += g;
      }
      if (signal_gain >=
          params.sinr.beta * (params.sinr.noise + interference)) {
        ++delivered;
      }
    }
    return static_cast<double>(delivered) /
           static_cast<double>(params.contexts);
  };

  const auto n = static_cast<graph::Vertex>(embedding.size());
  const double range = params.sinr.max_signal_range();
  const double range_sq = range * range;
  ReferenceExtraction out;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double min_nonreliable_dist = kInf;
  double max_edge_dist = 0.0;
  std::vector<double> other_gains;
  std::uint64_t pair_index = 0;
  for (graph::Vertex u = 0; u < n; ++u) {
    for (graph::Vertex v = u + 1; v < n; ++v) {
      const double d2 = geo::distance_sq(embedding[u], embedding[v]);
      const double d = std::sqrt(d2);
      if (d2 > range_sq) {
        min_nonreliable_dist = std::min(min_nonreliable_dist, d);
        continue;
      }
      ++out.stats.candidate_pairs;
      Rng rng(seed, pair_index++);
      double freq_min = 1.0, freq_max = 0.0;
      for (const auto& [rx, tx] : {std::pair{u, v}, std::pair{v, u}}) {
        other_gains.clear();
        for (graph::Vertex w = 0; w < n; ++w) {
          if (w == rx || w == tx) continue;
          other_gains.push_back(path_gain(
              params.sinr, geo::distance_sq(embedding[rx], embedding[w])));
        }
        const double freq = delivery_frequency(path_gain(params.sinr, d2),
                                               other_gains, rng);
        freq_min = std::min(freq_min, freq);
        freq_max = std::max(freq_max, freq);
      }
      RefClass cls = RefClass::kAbsent;
      if (freq_min >= params.reliable_threshold) {
        cls = RefClass::kReliable;
        ++out.stats.reliable_edges;
      } else if (freq_max >= params.unreliable_threshold) {
        cls = RefClass::kUnreliable;
        ++out.stats.unreliable_edges;
      }
      if (cls != RefClass::kReliable) {
        min_nonreliable_dist = std::min(min_nonreliable_dist, d);
      }
      if (cls != RefClass::kAbsent) {
        max_edge_dist = std::max(max_edge_dist, d);
        out.edges[{u, v}] = cls;
      }
    }
  }
  constexpr double kMargin = 1e-9;
  if (min_nonreliable_dist < kInf) {
    out.stats.scale = (1.0 + kMargin) / min_nonreliable_dist;
  }
  out.stats.r =
      std::max(1.0, max_edge_dist * out.stats.scale * (1.0 + kMargin));
  return out;
}

/// Compares every ExtractionStats field and every reliable and G' edge of
/// extract_dual_graph with the reference; returns the reference.
ReferenceExtraction expect_matches_reference(const geo::Embedding& emb,
                                             const SinrExtractParams& params,
                                             std::uint64_t seed,
                                             const std::string& where) {
  const auto ref = reference_extract(emb, params, seed);
  const auto ext = extract_dual_graph(emb, params, seed);
  EXPECT_EQ(ext.stats.candidate_pairs, ref.stats.candidate_pairs) << where;
  EXPECT_EQ(ext.stats.reliable_edges, ref.stats.reliable_edges) << where;
  EXPECT_EQ(ext.stats.unreliable_edges, ref.stats.unreliable_edges) << where;
  EXPECT_EQ(ext.stats.scale, ref.stats.scale) << where;
  EXPECT_EQ(ext.stats.r, ref.stats.r) << where;
  const auto n = static_cast<graph::Vertex>(emb.size());
  for (graph::Vertex u = 0; u < n; ++u) {
    for (graph::Vertex v = u + 1; v < n; ++v) {
      const auto it = ref.edges.find({u, v});
      const RefClass cls =
          it == ref.edges.end() ? RefClass::kAbsent : it->second;
      EXPECT_EQ(ext.graph.has_reliable_edge(u, v), cls == RefClass::kReliable)
          << where << " u=" << u << " v=" << v;
      EXPECT_EQ(ext.graph.has_gprime_edge(u, v), cls != RefClass::kAbsent)
          << where << " u=" << u << " v=" << v;
    }
  }
  return ref;
}

TEST(ExtractDualGraph, MatchesReference) {
  // Random deployments and parameters, including the boundaries the early
  // stop and the integer coin must get exactly right: thresholds that sit
  // on a frequency c / contexts, equal thresholds, reliable_threshold 1,
  // unreliable_threshold 0, and transmit probabilities at and next to 0
  // and 1.
  constexpr std::size_t kContexts[] = {1, 2, 63, 64, 100};
  constexpr double kTxProbability[] = {0.0, 1e-9, 0.15, 0.5, 1.0 - 1e-12,
                                       1.0};
  Rng rng(2024);
  std::size_t reliable = 0, unreliable = 0, absent_candidates = 0;
  for (int iter = 0; iter < 360 && !HasFailure(); ++iter) {
    SinrExtractParams params;
    params.sinr.alpha = rng.uniform(2.0, 6.0);
    params.sinr.beta = rng.uniform(1.0, 4.0);
    params.sinr.noise = std::pow(10.0, rng.uniform(-2.5, -0.3));
    params.contexts = kContexts[iter % 5];
    params.tx_probability = kTxProbability[(iter / 5) % 6];
    // A threshold is either uniform or exactly a reachable frequency.
    const auto threshold = [&] {
      if (rng.chance(0.5)) return rng.uniform();
      return static_cast<double>(rng.below(params.contexts + 1)) /
             static_cast<double>(params.contexts);
    };
    switch ((iter / 30) % 4) {
      case 0:  // independent thresholds
        params.reliable_threshold = threshold();
        params.unreliable_threshold = threshold();
        if (params.unreliable_threshold > params.reliable_threshold) {
          std::swap(params.unreliable_threshold, params.reliable_threshold);
        }
        break;
      case 1:  // equal: no grey zone
        params.reliable_threshold = params.unreliable_threshold = threshold();
        break;
      case 2:
        params.reliable_threshold = 1.0;
        params.unreliable_threshold = threshold();
        break;
      default:
        params.reliable_threshold = threshold();
        params.unreliable_threshold = 0.0;
        break;
    }
    // Mostly small deployments, a fifth up to 80 nodes; the side ranges
    // from everyone in range of everyone to a sparse spread.
    const std::size_t n = 1 + rng.below(rng.chance(0.2) ? 80 : 30);
    const double side = params.sinr.max_signal_range() *
                        std::sqrt(static_cast<double>(n)) *
                        rng.uniform(0.1, 2.0);
    const auto emb = random_embedding(n, side, rng);
    const auto ref = expect_matches_reference(emb, params, rng.bits(),
                                              "iter " + std::to_string(iter));
    reliable += ref.stats.reliable_edges;
    unreliable += ref.stats.unreliable_edges;
    absent_candidates += ref.stats.candidate_pairs -
                         ref.stats.reliable_edges -
                         ref.stats.unreliable_edges;
  }
  // The sweep must exercise all three classes among sampled pairs.
  EXPECT_GT(reliable, 0u);
  EXPECT_GT(unreliable, 0u);
  EXPECT_GT(absent_candidates, 0u);

  // chance(p) is uniform_of(u) < p, so an engine output exactly at
  // T = chance_threshold(p) means "silent".  Random draws never hit T, so
  // p is picked from an actual draw: the first engine output u in pair
  // (0, 1)'s stream that is the least one mapping to uniform_of(u); with
  // p = uniform_of(u), T is u itself.  Node 2 sits between 0 and 1 and
  // drowns either direction whenever it transmits (one draw per context),
  // and equal thresholds at every frequency make the class hinge on every
  // single delivery.
  const geo::Embedding trio{{0.0, 0.0}, {0.5, 0.0}, {0.25, 0.01}};
  SinrExtractParams params;
  params.contexts = 64;
  std::uint64_t seed = 0;
  std::uint64_t at_threshold = 0;
  for (; at_threshold == 0; ++seed) {
    Rng stream(seed, /*pair_index=*/0);
    for (std::size_t k = 0; k < params.contexts; ++k) {
      const std::uint64_t u = stream.bits();
      if (u > 0 && Rng::uniform_of(u - 1) < Rng::uniform_of(u)) {
        at_threshold = u;
        break;
      }
    }
  }
  --seed;  // the loop's increment ran once past the hit
  params.tx_probability = Rng::uniform_of(at_threshold);
  ASSERT_EQ(Rng::chance_threshold(params.tx_probability), at_threshold);
  for (std::size_t c = 0; c <= params.contexts; ++c) {
    params.reliable_threshold = params.unreliable_threshold =
        static_cast<double>(c) / static_cast<double>(params.contexts);
    expect_matches_reference(trio, params, seed,
                             "threshold " + std::to_string(c) + "/64");
  }
}

/// Order-sensitive digest of all wire events (same folding scheme as
/// tests/determinism_test.cpp).
class EventDigest final : public sim::Observer {
 public:
  std::uint64_t value() const noexcept { return h_; }
  void on_transmit(sim::Round round, graph::Vertex v,
                   const sim::Packet&) override {
    fold(1, round, v, 0);
  }
  void on_receive(sim::Round round, graph::Vertex u, graph::Vertex from,
                  const sim::Packet&) override {
    fold(2, round, u, from);
  }
  void on_silence(sim::Round round, graph::Vertex u, bool collision) override {
    fold(3, round, u, collision ? 1 : 0);
  }

 private:
  void fold(std::uint64_t kind, sim::Round round, std::uint64_t a,
            std::uint64_t b) {
    for (std::uint64_t w :
         {kind, static_cast<std::uint64_t>(round), a, b}) {
      h_ ^= w + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    }
  }
  std::uint64_t h_ = 0;
};

std::vector<std::unique_ptr<sim::Process>> coin_processes(std::size_t n) {
  struct Coin final : sim::Process {
    explicit Coin(sim::ProcessId id) : sim::Process(id) {}
    std::optional<sim::Packet> transmit(sim::RoundContext& ctx) override {
      if (!ctx.rng().chance(0.5)) return std::nullopt;
      return sim::Packet{
          id(), sim::DataPayload{sim::MessageId{id(), ++seq_}, seq_}};
    }
    void receive(const std::optional<sim::Packet>&,
                 sim::RoundContext&) override {}
    std::uint32_t seq_ = 0;
  };
  const auto ids = sim::assign_ids(n, 17);
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (std::size_t v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<Coin>(ids[v]));
  }
  return procs;
}

TEST(SinrChannel, LbStackRunsWithoutSpecViolations) {
  // Ground-truth physics may deliver across pairs the declared G' does not
  // connect; the spec checker must grade such executions by the
  // active-broadcaster half of validity only (channel.respects_dual_graph()
  // wiring in LbSimulation), not flag them for obeying physics.
  Rng rng(13);
  graph::GeometricSpec spec;
  spec.n = 32;
  const auto g = graph::random_geometric(spec, rng);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params = lb::LbParams::calibrated(0.1, g.r(), g.delta(),
                                               g.delta_prime(), scales);
  lb::LbSimulation sim(g, std::make_unique<SinrChannel>(SinrParams{}),
                       params, /*master_seed=*/77);
  sim.keep_busy({0, 16});
  sim.run_phases(4);
  EXPECT_TRUE(sim.report().validity_ok);
  EXPECT_EQ(sim.report().violations, 0u);
  EXPECT_GT(sim.report().raw_receptions, 0u);
}

TEST(DualGraphChannel, ExplicitChannelMatchesSchedulerConstructor) {
  const auto g = graph::bridged_clusters(6, 1.5);
  std::uint64_t digests[2];
  for (int mode = 0; mode < 2; ++mode) {
    sim::BernoulliScheduler sched(0.4);
    DualGraphChannel channel(sched);
    EventDigest digest;
    auto procs = coin_processes(g.size());
    std::unique_ptr<sim::Engine> engine;
    if (mode == 0) {
      engine = std::make_unique<sim::Engine>(g, sched, std::move(procs),
                                             /*master_seed=*/31337);
    } else {
      engine = std::make_unique<sim::Engine>(g, channel, std::move(procs),
                                             /*master_seed=*/31337);
    }
    engine->add_observer(&digest);
    engine->run_rounds(200);
    digests[mode] = digest.value();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

/// A Bernoulli(0.5) schedule that records how the channel consumed it:
/// bulk fill_round() calls or per-edge active() probes.  `word_cheap`
/// steers DualGraphChannel's strategy choice.
class StrategyProbe final : public sim::LinkScheduler {
 public:
  explicit StrategyProbe(bool word_cheap)
      : inner_(0.5), word_cheap_(word_cheap) {}
  void commit(const graph::DualGraph& g, std::uint64_t seed) override {
    inner_.commit(g, seed);
  }
  bool active(graph::UnreliableEdgeId edge, sim::Round round) const override {
    ++probes;
    return inner_.active(edge, round);
  }
  void fill_round(sim::Round round, sim::EdgeBitmap& out) const override {
    ++fills;
    inner_.fill_round(round, out);
  }
  bool fill_round_is_word_cheap() const override { return word_cheap_; }
  std::string name() const override { return inner_.name(); }

  mutable std::size_t probes = 0;
  mutable std::size_t fills = 0;

 private:
  sim::BernoulliScheduler inner_;
  bool word_cheap_;
};

/// Tallies of a contract sweep, so each test can rule out a vacuous pass.
struct ContractTally {
  std::size_t delivered = 0;        ///< deliveries in the full-mask runs
  std::size_t untouched_words = 0;  ///< words the sentinel check covered
};

/// The ChannelModel contract over a few rounds.  Two identically bound
/// channels see the same transmit sets: `masked` runs compute_round()
/// under fill_frontier()'s mask over a sentinel-filled heard span (zeroed
/// over the mask's words, as the engine does), `full` under an all-ones
/// mask.  Entries outside the mask's words must keep the sentinel, and
/// every listener's entry inside them must equal the full-mask run.  A
/// listener the full run reaches must also carry a frontier bit
/// (fill_frontier() is a superset of the hearers).  Transmitters come from
/// the first third of the vertices so the last words stay out of the mask.
void expect_channel_contract(ChannelModel& masked, ChannelModel& full,
                             std::size_t n, ContractTally& tally) {
  constexpr std::uint64_t kSentinel = 0xdeadbeefcafef00dULL;
  Rng rng(2024);
  for (sim::Round t = 1; t <= 12; ++t) {
    const double density = t % 2 == 0 ? 0.2 : 0.02;  // dense, then sparse
    Bitmap tx(n);
    for (std::size_t v = 0; v < n / 3; ++v) {
      if (rng.chance(density)) tx.set(v);
    }
    Bitmap frontier(n);
    masked.fill_frontier(tx, frontier);
    const auto words = frontier.words();
    std::vector<std::uint64_t> heard(n, kSentinel);
    for (std::size_t w = 0; w < words.size(); ++w) {
      if (words[w] == 0) continue;
      std::fill(heard.begin() + static_cast<std::ptrdiff_t>(w * 64),
                heard.begin() +
                    static_cast<std::ptrdiff_t>(std::min(w * 64 + 64, n)),
                0U);
    }
    masked.compute_round(t, tx, heard, frontier);
    std::vector<std::uint64_t> reference(n, 0);
    Bitmap everyone(n);
    everyone.set_all();
    full.compute_round(t, tx, reference, everyone);

    for (std::size_t w = 0; w < words.size(); ++w) {
      if (words[w] == 0) ++tally.untouched_words;
    }
    for (std::size_t u = 0; u < n; ++u) {
      if (words[u / 64] == 0) {
        ASSERT_EQ(heard[u], kSentinel) << "round " << t << " wrote u=" << u;
      }
      if (tx.test(u)) continue;  // transmitters' entries are ignored
      if (reference[u] != 0) {
        ASSERT_TRUE(frontier.test(u)) << "round " << t << " hearer u=" << u;
      }
      if (words[u / 64] != 0) {
        ASSERT_EQ(heard[u], reference[u]) << "round " << t << " u=" << u;
      }
      if (static_cast<std::uint32_t>(reference[u]) == 1) ++tally.delivered;
    }
  }
}

/// 24x24 grid: 576 vertices in nine words, reliable and unreliable edges.
graph::DualGraph contract_grid() {
  return graph::grid(24, 24, /*spacing=*/0.7, /*r=*/1.5);
}

TEST(ChannelContract, DualGraphBulkFillStaysInsideTheFrontier) {
  const auto g = contract_grid();
  ASSERT_GT(g.unreliable_edge_count(), 0u);
  StrategyProbe masked_sched(/*word_cheap=*/true);
  StrategyProbe full_sched(/*word_cheap=*/true);
  DualGraphChannel masked(masked_sched);
  DualGraphChannel full(full_sched);
  masked.bind(g, 5);
  full.bind(g, 5);
  ContractTally tally;
  expect_channel_contract(masked, full, g.size(), tally);
  EXPECT_GT(tally.delivered, 0u);
  EXPECT_GT(tally.untouched_words, 0u);
  EXPECT_GT(masked_sched.fills, 0u);
  EXPECT_EQ(masked_sched.probes, 0u);  // the bulk strategy, every round
}

TEST(ChannelContract, DualGraphEdgeProbesStayInsideTheFrontier) {
  const auto g = contract_grid();
  StrategyProbe masked_sched(/*word_cheap=*/false);
  StrategyProbe full_sched(/*word_cheap=*/false);
  DualGraphChannel masked(masked_sched);
  DualGraphChannel full(full_sched);
  masked.bind(g, 5);
  full.bind(g, 5);
  ContractTally tally;
  expect_channel_contract(masked, full, g.size(), tally);
  EXPECT_GT(tally.delivered, 0u);
  EXPECT_GT(tally.untouched_words, 0u);
  EXPECT_GT(masked_sched.probes, 0u);  // sparse rounds probe per edge
}

TEST(ChannelContract, SinrStaysInsideTheFrontier) {
  const auto g = contract_grid();
  SinrParams params;
  SinrChannel masked(params);
  SinrChannel full(params);
  masked.bind(g, 5);
  full.bind(g, 5);
  // The masked channel fills its far field over a two-thread pool; the
  // reference fills it serially.
  util::ThreadPool pool(2);
  masked.set_round_pool(&pool);
  ContractTally tally;
  expect_channel_contract(masked, full, g.size(), tally);
  EXPECT_GT(tally.delivered, 0u);
  EXPECT_GT(tally.untouched_words, 0u);
}

TEST(Engine, ReportsChannelName) {
  const auto g = test::reliable_path(3);
  sim::BernoulliScheduler sched(0.5);
  sim::Engine engine(g, sched, coin_processes(3), 1);
  EXPECT_EQ(engine.channel().name(), "dual-graph(bernoulli(p=0.500000))");
}

}  // namespace
}  // namespace dg::phys
