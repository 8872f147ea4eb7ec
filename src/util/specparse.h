// Shared token helpers for the textual spec grammars (scheduler specs in
// scn/, channel specs in phys/, traffic specs in traffic/) and the CLI
// flag values of dglab and dgcampaign.  The grammars are documented as
// mirroring each other; keeping their tokenization in one place keeps the
// strictness rules (whole-token numbers, finite values, digits-only
// counts) from drifting apart.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dg::spec {

inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

/// Strict numeric token: the whole token must parse and be finite.
inline bool parse_num(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && std::isfinite(out);
}

/// Strict unsigned token: digits only -- no sign, no blanks, no trailing
/// junk -- and no overflow (strtoull would wrap "-1", accept "+4" and
/// " 3", and saturate "99999999999999999999" to 2^64-1).
template <class UInt>
bool parse_uint(std::string_view s, UInt& out) {
  static_assert(std::is_unsigned_v<UInt>);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return !s.empty() && ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace dg::spec
