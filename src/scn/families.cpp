#include "scn/families.h"

#include <algorithm>
#include <iterator>

namespace dg::scn {

namespace {

void append_name(std::string& list, std::string_view name) {
  if (!list.empty()) list += ", ";
  list += name;
}

}  // namespace

const TopologyFamily* find_topology_family(std::string_view name) {
  const auto* it = std::find_if(
      std::begin(kTopologyFamilies), std::end(kTopologyFamilies),
      [&](const TopologyFamily& f) { return f.name == name; });
  return it == std::end(kTopologyFamilies) ? nullptr : it;
}

bool topology_has_embedding(std::string_view name) {
  const TopologyFamily* family = find_topology_family(name);
  return family != nullptr && family->embedded;
}

std::string topology_family_list(bool TopologyFamily::*trait) {
  std::string list;
  for (const TopologyFamily& f : kTopologyFamilies) {
    if (trait == nullptr || f.*trait) append_name(list, f.name);
  }
  return list;
}

bool is_workload_type(std::string_view type) {
  return std::find(std::begin(kWorkloadTypes), std::end(kWorkloadTypes),
                   type) != std::end(kWorkloadTypes);
}

std::string workload_type_list() {
  std::string list;
  for (std::string_view type : kWorkloadTypes) append_name(list, type);
  return list;
}

}  // namespace dg::scn
