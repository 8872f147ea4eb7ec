// The scenario families both front ends accept: one ordered table each.
//
// Campaign JSON (scn/scenario.cpp) and dglab (tools/dglab.cpp) read these
// tables for their membership tests and for the "(valid: ...)" lists of
// their rejection messages, so a family added here reaches both front ends
// and every message, in table order.
#pragma once

#include <string>
#include <string_view>

namespace dg::scn {

/// One topology family (TopologySpec::type).
struct TopologyFamily {
  std::string_view name;
  /// build_topology builds a DualGraph for it (deployment is an embedding
  /// without a graph; only abstraction_fidelity takes it).
  bool builds_graph;
  /// The built graph carries a plane embedding -- the geometry SINR
  /// reception reads.
  bool embedded;
};

inline constexpr TopologyFamily kTopologyFamilies[] = {
    {"geometric", true, true},        {"grid", true, true},
    {"clique", true, true},           {"star", true, true},
    {"line", true, true},             {"bridged", true, true},
    {"contention_star", true, false}, {"disjoint_cliques", true, false},
    {"deployment", false, false}};

/// The workload kinds (AlgorithmSpec::type).
inline constexpr std::string_view kWorkloadTypes[] = {
    "lb_progress",        "decay_progress",       "seed_agreement",
    "seed_then_progress", "abstraction_fidelity", "traffic_latency",
    "lb_churn"};

/// The family named `name`, or nullptr.
const TopologyFamily* find_topology_family(std::string_view name);

/// True when build_topology attaches a plane embedding to this family's
/// graph.  Both front ends reject SINR on any other family before anything
/// is built.
bool topology_has_embedding(std::string_view name);

/// The names of the families whose `trait` is set -- every family when
/// `trait` is null -- comma-separated in table order (for messages).
std::string topology_family_list(bool TopologyFamily::*trait = nullptr);

bool is_workload_type(std::string_view type);

/// Every workload kind, comma-separated in table order (for messages).
std::string workload_type_list();

}  // namespace dg::scn
