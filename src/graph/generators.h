// Topology generators.  Every generator returns a finalized DualGraph; the
// geometric families attach their r-geographic embedding, so tests can
// re-validate the Section 2 constraints and the analysis tooling can
// partition the plane.  The purely combinatorial families (contention_star,
// disjoint_cliques) carry no embedding.
//
// The geometric families share one wiring routine: the pairs within
// distance r come from a geo::BucketIndex, in lexicographic (u, v) order,
// so the cost is O(n * local density) and the unreliable-edge ids and any
// grey-zone Rng draws follow the order of an all-pairs scan exactly.
#pragma once

#include <cstddef>

#include "graph/dual_graph.h"
#include "util/rng.h"

namespace dg::graph {

/// Random geometric dual graph: n points uniform in [0, side]^2.
///   d <= 1        -> reliable edge (forced by the r-geographic property);
///   1 < d <= r    -> the "grey zone": reliable with prob p_grey_reliable,
///                    else unreliable with prob p_grey_unreliable, else
///                    absent (all three allowed by the model);
///   d > r         -> no edge (forced).
struct GeometricSpec {
  std::size_t n = 64;
  double side = 4.0;
  double r = 1.5;
  double p_grey_reliable = 0.1;
  double p_grey_unreliable = 0.6;
};

DualGraph random_geometric(const GeometricSpec& spec, Rng& rng);

/// Deterministic grid of cols x rows nodes with the given spacing; grey-zone
/// pairs become unreliable edges (deterministically, for reproducible
/// multi-hop topologies).  spacing <= 1 keeps the grid G-connected.  Wired
/// like every geometric family, in O(n * (r / spacing)^2), which keeps the
/// nightly grid:1000x1000 campaign (10^6 vertices) feasible.
DualGraph grid(std::size_t cols, std::size_t rows, double spacing, double r);

/// A cluster of n mutually reliable nodes (all inside a ball of diameter 1):
/// the clique that realizes the Omega(log) progress lower bound of Section 1
/// (symmetry breaking among an unknown subset of n contenders).
DualGraph clique_cluster(std::size_t n);

/// Hub node 0 at the origin plus `leaves` nodes on the unit circle around
/// it: every leaf is a reliable neighbor of the hub.  Realizes the
/// Omega(Delta) acknowledgement lower bound of Section 1 (the hub can
/// receive at most one message per round).  Chord-adjacent leaves closer
/// than distance 1 also get reliable edges, as the geographic property
/// forces.
DualGraph star_ring(std::size_t leaves, double r);

/// `n` nodes on a line with the given spacing; pairs in the grey zone get
/// unreliable edges.  The classic multi-hop pipeline for flood benchmarks.
DualGraph line(std::size_t n, double spacing, double r);

/// Two reliable cliques whose only interconnection is a band of *unreliable*
/// edges: communication across the cut exists only when the scheduler allows
/// it.  Exercises progress/validity under total link unreliability.
DualGraph bridged_clusters(std::size_t per_cluster, double r);

/// The contention-star topology of the paper's Discussion section: receiver
/// 0, one reliable sender (vertex 1), and `unreliable_neighbors` vertices
/// attached to the receiver by unreliable edges only.  No embedding (the
/// topology is combinatorial, not geometric).
DualGraph contention_star(std::size_t unreliable_neighbors);

/// Disjoint union of `cliques` cliques of `clique_size` mutually-reliable
/// nodes: the fixed-Delta, growing-n family for the locality experiments.
/// No embedding.
DualGraph disjoint_cliques(std::size_t cliques, std::size_t clique_size);

}  // namespace dg::graph
