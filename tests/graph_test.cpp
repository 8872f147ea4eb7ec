// Tests for the dual graph structure and the topology generators: the
// E subset-of E' invariant, degree bounds, the r-geographic conditions of
// Section 2 (property sweeps over random instances), and Lemma A.3.  The
// bucket-indexed is_r_geographic and generator wiring are checked against
// all-pairs references kept here: the validator verdict must agree, and the
// generated graphs (CSR, unreliable-edge ids, grey-zone Rng draws) must be
// byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geo/bucket_index.h"
#include "geo/region_partition.h"
#include "graph/dual_graph.h"
#include "graph/generators.h"
#include "phys/extract.h"
#include "util/rng.h"

namespace dg::graph {
namespace {

TEST(DualGraph, ReliableEdgesAppearInBothGraphs) {
  DualGraph g(3);
  g.add_reliable_edge(0, 1);
  g.finalize();
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_gprime_edge(0, 1));
  EXPECT_FALSE(g.has_reliable_edge(0, 2));
}

TEST(DualGraph, UnreliableEdgesOnlyInGPrime) {
  DualGraph g(3);
  g.add_unreliable_edge(0, 1);
  g.finalize();
  EXPECT_FALSE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_gprime_edge(0, 1));
  EXPECT_EQ(g.unreliable_edge_count(), 1u);
  EXPECT_EQ(g.unreliable_edge(0).u, 0u);
  EXPECT_EQ(g.unreliable_edge(0).v, 1u);
}

TEST(DualGraph, AddsAreIdempotent) {
  DualGraph g(2);
  g.add_reliable_edge(0, 1);
  g.add_reliable_edge(1, 0);
  g.finalize();
  EXPECT_EQ(g.g_neighbors(0).size(), 1u);
  EXPECT_EQ(g.gprime_neighbors(0).size(), 1u);
}

TEST(DualGraph, MixingEdgeClassesAborts) {
  DualGraph g(2);
  g.add_reliable_edge(0, 1);
  EXPECT_DEATH(g.add_unreliable_edge(0, 1), "precondition");
}

TEST(DualGraph, SelfLoopsRejected) {
  DualGraph g(2);
  EXPECT_DEATH(g.add_reliable_edge(1, 1), "precondition");
}

TEST(DualGraph, QueriesBeforeFinalizeAbort) {
  DualGraph g(2);
  g.add_reliable_edge(0, 1);
  EXPECT_DEATH(g.g_neighbors(0), "precondition");
}

TEST(DualGraph, EdgesAfterFinalizeAbort) {
  DualGraph g(3);
  g.finalize();
  EXPECT_DEATH(g.add_reliable_edge(0, 1), "precondition");
}

TEST(DualGraph, DegreeBoundsCountSelfPlusNeighbors) {
  DualGraph g(4);  // star around 0 plus an unreliable 1-2 edge
  g.add_reliable_edge(0, 1);
  g.add_reliable_edge(0, 2);
  g.add_reliable_edge(0, 3);
  g.add_unreliable_edge(1, 2);
  g.finalize();
  EXPECT_EQ(g.delta(), 4u);        // |N_G(0) u {0}|
  EXPECT_EQ(g.delta_prime(), 4u);  // same vertex dominates
}

TEST(DualGraph, UnreliableIncidentListsBothEndpoints) {
  DualGraph g(3);
  g.add_unreliable_edge(0, 2);
  g.finalize();
  ASSERT_EQ(g.unreliable_incident(0).size(), 1u);
  ASSERT_EQ(g.unreliable_incident(2).size(), 1u);
  EXPECT_EQ(g.unreliable_incident(0)[0].second, 2u);
  EXPECT_EQ(g.unreliable_incident(2)[0].second, 0u);
  EXPECT_EQ(g.unreliable_incident(0)[0].first,
            g.unreliable_incident(2)[0].first);
}

// ---- generators: property sweeps ----

class GeometricProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeometricProperty, RandomGeometricIsRGeographic) {
  Rng rng(GetParam());
  GeometricSpec spec;
  spec.n = 40;
  spec.side = 3.0;
  spec.r = 1.5;
  const DualGraph g = random_geometric(spec, rng);
  ASSERT_TRUE(g.embedding().has_value());
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), spec.r));
}

TEST_P(GeometricProperty, DeltaPrimeBoundedByCrDelta) {
  // Lemma A.3: Delta' <= c_r * Delta for r-geographic dual graphs.
  Rng rng(GetParam() ^ 0xabcdef);
  GeometricSpec spec;
  spec.n = 60;
  spec.side = 4.0;
  spec.r = 2.0;
  const DualGraph g = random_geometric(spec, rng);
  const geo::GridPartition part(0.5, spec.r);
  EXPECT_LE(g.delta_prime(), part.cr_bound() * g.delta());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometricProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Generators, GridHasExpectedStructure) {
  const DualGraph g = grid(4, 3, 1.0, 1.5);
  EXPECT_EQ(g.size(), 12u);
  // spacing 1.0: orthogonal neighbors reliable.
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_reliable_edge(0, 4));
  // diagonal at sqrt(2) ~ 1.414 <= r: unreliable.
  EXPECT_FALSE(g.has_reliable_edge(0, 5));
  EXPECT_TRUE(g.has_gprime_edge(0, 5));
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(Generators, CliqueClusterIsComplete) {
  const DualGraph g = clique_cluster(8);
  for (Vertex u = 0; u < 8; ++u) {
    EXPECT_EQ(g.g_neighbors(u).size(), 7u);
  }
  EXPECT_EQ(g.delta(), 8u);
  EXPECT_EQ(g.unreliable_edge_count(), 0u);
}

TEST(Generators, StarRingHubSeesAllLeaves) {
  const std::size_t leaves = 16;
  const DualGraph g = star_ring(leaves, 1.5);
  EXPECT_EQ(g.g_neighbors(0).size(), leaves);
  EXPECT_EQ(g.delta(), leaves + 1);
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(Generators, LineIsAPath) {
  const DualGraph g = line(6, 1.0, 1.5);
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_FALSE(g.has_reliable_edge(0, 2));
  EXPECT_FALSE(g.has_gprime_edge(0, 3));  // distance 3 > r
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(Generators, LineGreyZoneIsUnreliable) {
  // spacing 0.75: distance-2 pairs at 1.5 (= r) fall in the grey zone and
  // the generator wires them as unreliable.
  const DualGraph g = line(5, 0.75, 1.5);
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_gprime_edge(0, 2));
  EXPECT_FALSE(g.has_reliable_edge(0, 2));
}

TEST(Generators, BridgedClustersCrossEdgesAllUnreliable) {
  const DualGraph g = bridged_clusters(5, 1.5);
  EXPECT_EQ(g.size(), 10u);
  for (Vertex a = 0; a < 5; ++a) {
    for (Vertex b = 5; b < 10; ++b) {
      EXPECT_FALSE(g.has_reliable_edge(a, b));
      EXPECT_TRUE(g.has_gprime_edge(a, b))
          << "bridge pair " << a << "," << b;
    }
  }
  // Within a cluster: all reliable.
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_reliable_edge(5, 6));
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(Generators, GeneratedGraphsAreDeterministicPerSeed) {
  Rng rng1(55), rng2(55);
  GeometricSpec spec;
  spec.n = 30;
  const DualGraph a = random_geometric(spec, rng1);
  const DualGraph b = random_geometric(spec, rng2);
  ASSERT_EQ(a.size(), b.size());
  const auto same = [](std::span<const Vertex> x, std::span<const Vertex> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  for (Vertex v = 0; v < a.size(); ++v) {
    EXPECT_TRUE(same(a.g_neighbors(v), b.g_neighbors(v)));
    EXPECT_TRUE(same(a.gprime_neighbors(v), b.gprime_neighbors(v)));
  }
}

TEST(IsRGeographic, DetectsMissingReliableEdge) {
  // Two nodes at distance 0.5 with no edge: violates condition 1.
  DualGraph g(2);
  g.set_embedding({{0.0, 0.0}, {0.5, 0.0}}, 1.5);
  g.finalize();
  EXPECT_FALSE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(IsRGeographic, DetectsTooLongEdge) {
  // Edge between nodes at distance 3 > r: violates condition 2.
  DualGraph g(2);
  g.add_unreliable_edge(0, 1);
  g.set_embedding({{0.0, 0.0}, {3.0, 0.0}}, 1.5);
  g.finalize();
  EXPECT_FALSE(is_r_geographic(g, *g.embedding(), 1.5));
}

// ---- all-pairs references: the oracles for the bucket-indexed paths ----

/// The all-pairs r-geographic check: every vertex pair, both conditions.
bool brute_is_r_geographic(const DualGraph& g, const geo::Embedding& emb,
                           double r) {
  const auto n = static_cast<Vertex>(g.size());
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const double d = geo::distance(emb[u], emb[v]);
      if (d <= 1.0 && !g.has_reliable_edge(u, v)) return false;
      if (d > r && g.has_gprime_edge(u, v)) return false;
    }
  }
  return true;
}

/// Runs both checks, requires them to agree, and returns the verdict.
bool checked_verdict(const DualGraph& g, const geo::Embedding& emb, double r) {
  const bool brute = brute_is_r_geographic(g, emb, r);
  EXPECT_EQ(is_r_geographic(g, emb, r), brute)
      << "n=" << g.size() << " r=" << r;
  return brute;
}

/// The all-pairs wiring: every pair (u, v), u < v, in lexicographic order,
/// d <= 1 reliable, 1 < d <= r classified by `grey` (0 absent, 1 reliable,
/// 2 unreliable).
template <typename GreyFn>
DualGraph reference_wiring(const geo::Embedding& pts, double r,
                           GreyFn&& grey) {
  DualGraph g(pts.size());
  const auto n = static_cast<Vertex>(pts.size());
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const double d = geo::distance(pts[u], pts[v]);
      if (d <= 1.0) {
        g.add_reliable_edge(u, v);
      } else if (d <= r) {
        const int cls = grey(u, v, d);
        if (cls == 1) g.add_reliable_edge(u, v);
        if (cls == 2) g.add_unreliable_edge(u, v);
      }
    }
  }
  g.set_embedding(pts, r);
  g.finalize();
  return g;
}

template <typename T>
bool same_span(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// G and G' CSR, unreliable incidence order, unreliable-edge ids, degree
/// bounds and embedding all equal.
void expect_identical(const DualGraph& got, const DualGraph& want) {
  ASSERT_EQ(got.size(), want.size());
  for (Vertex u = 0; u < got.size(); ++u) {
    EXPECT_TRUE(same_span(got.g_neighbors(u), want.g_neighbors(u))) << u;
    EXPECT_TRUE(same_span(got.gprime_neighbors(u), want.gprime_neighbors(u)))
        << u;
    EXPECT_TRUE(
        same_span(got.unreliable_incident(u), want.unreliable_incident(u)))
        << u;
  }
  ASSERT_EQ(got.unreliable_edge_count(), want.unreliable_edge_count());
  for (UnreliableEdgeId e = 0; e < got.unreliable_edge_count(); ++e) {
    EXPECT_EQ(got.unreliable_edge(e).u, want.unreliable_edge(e).u) << e;
    EXPECT_EQ(got.unreliable_edge(e).v, want.unreliable_edge(e).v) << e;
  }
  EXPECT_EQ(got.delta(), want.delta());
  EXPECT_EQ(got.delta_prime(), want.delta_prime());
  EXPECT_EQ(got.r(), want.r());
  EXPECT_EQ(got.embedding(), want.embedding());
}

using Pair = std::pair<Vertex, Vertex>;

/// A copy of `g` with the reliable edge `drop` removed and the unreliable
/// edge `add` added.
DualGraph mutated(const DualGraph& g, std::optional<Pair> drop,
                  std::optional<Pair> add) {
  DualGraph out(g.size());
  for (Vertex u = 0; u < g.size(); ++u) {
    for (const Vertex v : g.g_neighbors(u)) {
      if (v > u && (!drop || *drop != Pair{u, v})) out.add_reliable_edge(u, v);
    }
  }
  for (UnreliableEdgeId e = 0; e < g.unreliable_edge_count(); ++e) {
    out.add_unreliable_edge(g.unreliable_edge(e).u, g.unreliable_edge(e).v);
  }
  if (add) out.add_unreliable_edge(add->first, add->second);
  if (g.embedding()) out.set_embedding(*g.embedding(), g.r());
  out.finalize();
  return out;
}

/// Checks `g` and its two one-edge mutations (a dropped d <= 1 reliable
/// edge; an added E' edge with d > r), when such pairs exist.
void expect_agreement_with_mutations(const DualGraph& g, double r) {
  const geo::Embedding& emb = *g.embedding();
  EXPECT_TRUE(checked_verdict(g, emb, r));
  std::optional<Pair> close;
  std::optional<Pair> far;
  for (Vertex u = 0; u < g.size() && !(close && far); ++u) {
    for (Vertex v = u + 1; v < g.size(); ++v) {
      const double d = geo::distance(emb[u], emb[v]);
      if (!close && d <= 1.0) close = Pair{u, v};
      if (!far && d > r) far = Pair{u, v};
    }
  }
  if (close) {
    EXPECT_FALSE(checked_verdict(mutated(g, close, std::nullopt), emb, r));
  }
  if (far) {
    EXPECT_FALSE(checked_verdict(mutated(g, std::nullopt, far), emb, r));
  }
}

// ---- is_r_geographic vs the all-pairs oracle ----

TEST(IsRGeographicOracle, RandomGeometricAndMutationsAgree) {
  for (const double r : {1.0, 1.5, 2.0, 3.0}) {
    for (const double side : {1.0, 3.0, 8.0, 25.0}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(side * 10 + r));
        GeometricSpec spec;
        spec.n = 70;
        spec.side = side;
        spec.r = r;
        const DualGraph g = random_geometric(spec, rng);
        SCOPED_TRACE(::testing::Message()
                     << "r=" << r << " side=" << side << " seed=" << seed);
        expect_agreement_with_mutations(g, r);
      }
    }
  }
}

TEST(IsRGeographicOracle, RandomWiringsWithViolationsAgree) {
  // Arbitrary edge sets over random points: each close pair is sometimes
  // missing, each far pair is sometimes an edge, so both verdicts occur.
  Rng rng(2024);
  int valid = 0;
  int invalid = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const auto n = static_cast<std::size_t>(rng.between(1, 30));
    const double side = rng.uniform(0.5, 6.0);
    const double r = 1.0 + rng.uniform(0.0, 2.0);
    geo::Embedding pts(n);
    for (auto& p : pts) {
      p = geo::Point{rng.uniform(-side, side), rng.uniform(0.0, side)};
    }
    const double p_flip = iter % 3 == 0 ? 0.0 : 0.01;
    DualGraph g(n);
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = u + 1; v < n; ++v) {
        const double d = geo::distance(pts[u], pts[v]);
        const bool flip = rng.chance(p_flip);
        if (d <= 1.0) {
          if (!flip) g.add_reliable_edge(u, v);
        } else if (d <= r) {
          if (rng.chance(0.5)) g.add_unreliable_edge(u, v);
        } else if (flip) {
          g.add_unreliable_edge(u, v);
        }
      }
    }
    g.finalize();
    (checked_verdict(g, pts, r) ? valid : invalid) += 1;
  }
  EXPECT_GT(valid, 50);
  EXPECT_GT(invalid, 50);
}

TEST(IsRGeographicOracle, EveryGeneratorAndExtractionAgree) {
  std::vector<DualGraph> graphs;
  graphs.push_back(grid(9, 7, 1.0, 1.5));
  graphs.push_back(grid(8, 8, 0.75, 1.5));
  graphs.push_back(grid(6, 5, 0.5, 3.0));
  graphs.push_back(clique_cluster(9));
  graphs.push_back(clique_cluster(1));
  graphs.push_back(star_ring(12, 1.5));
  graphs.push_back(line(15, 0.75, 1.5));
  graphs.push_back(line(10, 1.0, 2.0));
  graphs.push_back(bridged_clusters(6, 1.5));
  graphs.push_back(bridged_clusters(4, 3.0));
  Rng rng(5);
  for (int iter = 0; iter < 4; ++iter) {
    geo::Embedding emb(30);
    for (auto& p : emb) {
      p = geo::Point{rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)};
    }
    graphs.push_back(
        phys::extract_dual_graph(emb, phys::SinrExtractParams{}, 40 + iter)
            .graph);
  }
  for (const DualGraph& g : graphs) {
    SCOPED_TRACE(::testing::Message() << "n=" << g.size() << " r=" << g.r());
    expect_agreement_with_mutations(g, g.r());
  }
}

/// A two-vertex graph at the given positions, optionally with one edge.
DualGraph pair_graph(geo::Point a, geo::Point b, int edge, double r) {
  DualGraph g(2);
  if (edge == 1) g.add_reliable_edge(0, 1);
  if (edge == 2) g.add_unreliable_edge(0, 1);
  g.set_embedding({a, b}, r);
  g.finalize();
  return g;
}

TEST(IsRGeographicOracle, HandPlacedBoundaryPairs) {
  const double just_over_one = std::nextafter(1.0, 2.0);
  for (const double r : {1.0, 1.5, 2.0, 3.0}) {
    const double just_over_r =
        std::nextafter(r, std::numeric_limits<double>::infinity());
    const auto verdict = [&](geo::Point a, geo::Point b, int edge) {
      const DualGraph g = pair_graph(a, b, edge, r);
      return checked_verdict(g, *g.embedding(), r);
    };
    SCOPED_TRACE(::testing::Message() << "r=" << r);
    // d = 1 exactly: (1) forces the reliable edge.
    ASSERT_EQ(geo::distance({0, 0}, {1, 0}), 1.0);
    EXPECT_FALSE(verdict({0, 0}, {1, 0}, 0));
    EXPECT_FALSE(verdict({0, 0}, {0, -1}, 2));
    EXPECT_TRUE(verdict({0, 0}, {1, 0}, 1));
    // d just above 1: no edge is allowed, and so is an unreliable one when
    // that is still within r.
    ASSERT_GT(geo::distance({0, 0}, {just_over_one, 0}), 1.0);
    EXPECT_TRUE(verdict({0, 0}, {just_over_one, 0}, 0));
    EXPECT_EQ(verdict({0, 0}, {just_over_one, 0}, 2), r > 1.0);
    // d = r exactly: an edge is allowed (reliable only, when r = 1);
    // d just above r: none is.
    ASSERT_EQ(geo::distance({-r, 0}, {0, 0}), r);
    EXPECT_EQ(verdict({-r, 0}, {0, 0}, 2), r > 1.0);
    EXPECT_TRUE(verdict({0, -r}, {0, 0}, 1));
    ASSERT_GT(geo::distance({0, 0}, {just_over_r, 0}), r);
    EXPECT_FALSE(verdict({0, 0}, {just_over_r, 0}, 2));
    EXPECT_FALSE(verdict({0, 0}, {0, just_over_r}, 1));
    EXPECT_TRUE(verdict({0, 0}, {just_over_r, 0}, 0));
    // Coincident points are at distance 0 <= 1.
    EXPECT_FALSE(verdict({-2.5, -2.5}, {-2.5, -2.5}, 0));
    EXPECT_TRUE(verdict({-2.5, -2.5}, {-2.5, -2.5}, 1));
  }
  // A unit pair straddling a cell edge: one point a hair inside the first
  // cell, its partner one unit further on.  Cells only as wide as the
  // radius (no margin) would put the partner two cells away and miss it.
  const geo::Embedding origin{{0.0, 0.0}};
  const double cell = geo::BucketIndex(origin, 1.0).cell_side();
  for (const bool along_x : {true, false}) {
    const double a = std::nextafter(cell, 0.0);
    double b = a + 1.0;
    while (geo::distance({a, 0}, {b, 0}) > 1.0) b = std::nextafter(b, 0.0);
    const auto at = [&](double t) {
      return along_x ? geo::Point{t, 0.0} : geo::Point{0.0, t};
    };
    // Vertex 0 pins the cell grid's origin on the pair's axis from far off
    // the axis, so it is near nothing.
    const geo::Point anchor =
        along_x ? geo::Point{0.0, 5.0} : geo::Point{5.0, 0.0};
    DualGraph g(3);
    g.set_embedding({anchor, at(a), at(b)}, 1.5);
    g.finalize();
    SCOPED_TRACE(::testing::Message() << "along_x=" << along_x);
    EXPECT_FALSE(checked_verdict(g, *g.embedding(), 1.5));
  }
  // n = 1: no pairs, always valid.
  DualGraph one(1);
  one.set_embedding({{-4.0, 7.0}}, 1.5);
  one.finalize();
  EXPECT_TRUE(checked_verdict(one, *one.embedding(), 1.5));
}

TEST(IsRGeographicOracle, LatticesOnCellBoundariesWithNegativeCoordinates) {
  // Points on a lattice whose spacing is 1 or the index cell side sit
  // exactly on cell boundaries; every unit pair must still be found.
  const geo::Embedding origin{{0.0, 0.0}};
  const double cell = geo::BucketIndex(origin, 1.0).cell_side();
  for (const double spacing : {1.0, cell, 0.5, std::nextafter(1.0, 0.0)}) {
    geo::Embedding pts;
    for (int j = -3; j <= 3; ++j) {
      for (int i = -3; i <= 3; ++i) pts.push_back({i * spacing, j * spacing});
    }
    const DualGraph g = reference_wiring(
        pts, 1.5, [](Vertex, Vertex, double) { return 2; });
    SCOPED_TRACE(::testing::Message() << "spacing=" << spacing);
    expect_agreement_with_mutations(g, 1.5);
  }
}

// ---- generators vs the all-pairs reference wiring ----

TEST(GeneratorIdentity, RandomGeometricMatchesAllPairsWiring) {
  for (const double r : {1.0, 1.5, 2.0, 3.0}) {
    for (const double side : {1.0, 4.0, 12.0}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        GeometricSpec spec;
        spec.n = 90;
        spec.side = side;
        spec.r = r;
        Rng rng(seed);
        const DualGraph g = random_geometric(spec, rng);

        Rng ref(seed);
        geo::Embedding pts(spec.n);
        for (auto& p : pts) {
          p = geo::Point{ref.uniform(0.0, spec.side),
                         ref.uniform(0.0, spec.side)};
        }
        const DualGraph want =
            reference_wiring(pts, spec.r, [&](Vertex, Vertex, double) {
              if (ref.chance(spec.p_grey_reliable)) return 1;
              if (ref.chance(spec.p_grey_unreliable)) return 2;
              return 0;
            });
        SCOPED_TRACE(::testing::Message()
                     << "r=" << r << " side=" << side << " seed=" << seed);
        expect_identical(g, want);
        // Same number of grey-zone draws, in the same order.
        EXPECT_EQ(rng.bits(), ref.bits());
      }
    }
  }
}

TEST(GeneratorIdentity, DeterministicFamiliesMatchAllPairsWiring) {
  const auto absent = [](Vertex, Vertex, double) { return 0; };
  const auto unreliable = [](Vertex, Vertex, double) { return 2; };
  const auto check = [](const DualGraph& g, auto grey) {
    SCOPED_TRACE(::testing::Message() << "n=" << g.size() << " r=" << g.r());
    expect_identical(g, reference_wiring(*g.embedding(), g.r(), grey));
  };
  check(grid(1, 1, 1.0, 1.5), unreliable);
  check(grid(16, 16, 1.0, 1.5), unreliable);
  check(grid(12, 9, 0.7, 2.0), unreliable);
  check(grid(10, 10, 1.0, 1.0), unreliable);
  check(grid(9, 6, 0.75, 1.5), unreliable);
  check(grid(7, 5, 0.5, 3.0), unreliable);
  check(grid(25, 1, 1.0, 1.5), unreliable);
  check(grid(5, 8, 2.5, 1.5), unreliable);
  check(line(1, 1.0, 1.5), unreliable);
  check(line(20, 0.75, 1.5), unreliable);
  check(line(12, 1.0, 3.0), unreliable);
  check(star_ring(1, 1.5), absent);
  check(star_ring(16, 1.5), absent);
  check(star_ring(7, 2.0), absent);
  check(bridged_clusters(1, 1.5), unreliable);
  check(bridged_clusters(6, 1.5), unreliable);
  check(bridged_clusters(5, 3.0), unreliable);
  check(clique_cluster(1), absent);
  check(clique_cluster(12), absent);
}

}  // namespace
}  // namespace dg::graph
