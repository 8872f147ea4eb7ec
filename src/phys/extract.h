// Dual-graph extraction from an SINR deployment.
//
// The bridge from physics back to the paper's model: given node positions
// and SINR parameters, classify every vertex pair as reliable /
// grey-zone-unreliable / absent by Monte Carlo sampling of interference
// contexts, and package the result as a finalized graph::DualGraph whose
// (rescaled) embedding satisfies the two r-geographic conditions of
// Section 2:
//
//   (1) d(u, v) <= 1  implies {u, v} in E;
//   (2) d(u, v) > r   implies {u, v} not in E'.
//
// A pair is sampled by letting one endpoint transmit, the other listen, and
// every other node transmit independently with `tx_probability`; the pair's
// delivery frequency over `contexts` such rounds (computed with the exact
// SINR rule, per direction) decides its class: reliable when both
// directions deliver in at least `reliable_threshold` of contexts,
// unreliable when either direction delivers in at least
// `unreliable_threshold`, absent otherwise.
//
// The raw embedding is then rescaled so condition (1) holds by
// construction: unit distance is placed just below the closest pair that
// failed the reliability test, so everything closer -- which is, by
// minimality, reliable -- lands at scaled distance <= 1, and the failing
// pair itself lands strictly above 1.  r is the largest scaled distance
// spanned by any extracted edge (clamped to >= 1), so condition (2) is also
// structural.  The output therefore always validates
// graph::is_r_geographic, and the whole seed/LB/AMAC stack and its spec
// checkers run on it unchanged.
//
// Extraction is offline tooling (deployment analysis), not a round-engine
// hot path.  Each candidate pair draws from its own stream
// Rng(seed, pair_index), and every context draws one coin for each of the
// n - 2 other nodes (not just those in range), so the cost is
// O(candidate pairs * contexts * n) engine draws.  Two rules cut the work
// without changing a single output bit:
//
//   - the coin is an integer compare, bits() < Rng::chance_threshold(p),
//     and only the gains of nodes that drew "transmit" are summed, in
//     ascending order -- the same floating-point sum as the chance-gated
//     loop, hence the same SINR verdict;
//   - a pair stops sampling once its class is fixed whatever the remaining
//     contexts deliver.  Nothing reads a pair's stream afterwards, so this
//     is free; but direction 2 reads the stream after all of direction 1's
//     contexts x (n - 2) draws, so direction 1 stops early only when the
//     class no longer depends on direction 2 (it cannot be reliable and is
//     already unreliable).  p <= 0 and p >= 1 draw nothing at all.
//
// The graph and ExtractionStats are bit-identical to sampling every
// context of both directions (tests/phys_test.cpp keeps that body as the
// reference).
#pragma once

#include <cstdint>

#include "geo/point.h"
#include "graph/dual_graph.h"
#include "phys/sinr.h"

namespace dg::phys {

struct SinrExtractParams {
  SinrParams sinr;
  std::size_t contexts = 64;          ///< MC interference contexts per pair
  double tx_probability = 0.15;       ///< background transmit probability
  double reliable_threshold = 0.99;   ///< min delivery freq, both directions
  double unreliable_threshold = 0.05; ///< min delivery freq, either direction
};

struct ExtractionStats {
  std::size_t candidate_pairs = 0;  ///< pairs within max signal range
  std::size_t reliable_edges = 0;
  std::size_t unreliable_edges = 0;
  double scale = 1.0;  ///< graph distance = raw distance * scale
  double r = 1.0;      ///< the r for which the result is r-geographic
};

struct SinrExtraction {
  graph::DualGraph graph;  ///< finalized, rescaled embedding attached
  ExtractionStats stats;
};

/// Extracts the dual-graph abstraction of the SINR deployment `embedding`.
/// Deterministic for a given (embedding, params, seed).  Requires at least
/// one vertex and pairwise-distinct positions among pairs that fail the
/// reliability test (coincident unreliable pairs cannot satisfy (1) under
/// any rescaling).
SinrExtraction extract_dual_graph(const geo::Embedding& embedding,
                                  const SinrExtractParams& params,
                                  std::uint64_t seed);

}  // namespace dg::phys
