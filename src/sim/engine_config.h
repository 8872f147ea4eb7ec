// sim::EngineConfig -- the one builder for the engine's mutator surface.
//
// The config object names every knob once, applies in a fixed order
// (threads, oracle switch, fault plan, splices, telemetry -- so spliced
// stages exist before the profiler registers per-stage timers), and flows
// unchanged through LbSimulation::configure() to the engine.  Engine and
// LbSimulation have no per-knob setters: every call site builds a config.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/splice.h"

namespace dg::fault {
class FaultPlan;
class FaultListener;
}  // namespace dg::fault

namespace dg::obs {
class Registry;
class TraceSink;
}  // namespace dg::obs

namespace dg::sim {

/// Ceiling on the round thread cap, shared by every entry point (the
/// DG_ROUND_THREADS default, the --round-threads validator and scenario
/// files): beyond it the engine would spawn a pool the host cannot give it.
inline constexpr std::size_t kMaxRoundThreads = 256;

struct EngineConfig {
  /// 0 = leave the engine's current thread cap untouched; otherwise in
  /// [1, kMaxRoundThreads].
  std::size_t round_threads = 0;

  /// Fault plan to install (nullptr clears) -- only applied when
  /// has_fault_plan is set, so a default config never clears an
  /// already-installed plan.
  bool has_fault_plan = false;
  fault::FaultPlan* fault_plan = nullptr;
  fault::FaultListener* fault_listener = nullptr;

  /// Telemetry to install (nullptrs clear) -- same has_* convention.
  bool has_telemetry = false;
  obs::Registry* registry = nullptr;
  obs::TraceSink* trace_sink = nullptr;

  /// false = the oracle mode: every round runs with a full activity mask
  /// and no process is parked -- the test reference for the computed
  /// frontier (see docs/PIPELINE.md).  Only applied when has_sparse_rounds
  /// is set, and only before round 1, so a default config keeps the
  /// engine's setting (which starts from the DG_SPARSE_ROUNDS environment
  /// knob, default on).
  bool has_sparse_rounds = false;
  bool sparse_rounds = true;

  /// Extra stages spliced into the round pipeline, in installation order.
  /// Must have passed validate_splice_specs().
  std::vector<SpliceSpec> splices;

  EngineConfig& with_round_threads(std::size_t threads) {
    round_threads = threads;
    return *this;
  }
  EngineConfig& with_fault_plan(fault::FaultPlan* plan,
                                fault::FaultListener* listener = nullptr) {
    has_fault_plan = true;
    fault_plan = plan;
    fault_listener = listener;
    return *this;
  }
  EngineConfig& with_telemetry(obs::Registry* reg,
                               obs::TraceSink* sink = nullptr) {
    has_telemetry = true;
    registry = reg;
    trace_sink = sink;
    return *this;
  }
  EngineConfig& with_sparse_rounds(bool on) {
    has_sparse_rounds = true;
    sparse_rounds = on;
    return *this;
  }
  EngineConfig& with_splice(SpliceSpec spec) {
    splices.push_back(std::move(spec));
    return *this;
  }
};

}  // namespace dg::sim
