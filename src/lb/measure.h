// Reusable LBAlg workload measurements.
//
// These were born inside the bench binaries (bench_support.h's
// lb_progress_latency, bench_e14's flood measurement); the scenario
// subsystem (src/scn/) runs the same workloads declaratively, so the
// measurement logic lives here and both layers share one definition.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/dual_graph.h"
#include "lb/params.h"
#include "lb/simulation.h"
#include "sim/engine_config.h"
#include "sim/scheduler.h"

namespace dg::lb {

/// Measures LBAlg progress latency on a freshly built simulation: rounds
/// until the designated receiver's first data reception, with `senders`
/// kept saturated, phase by phase up to `horizon_phases`.  Returns 0 when
/// the receiver never received.  Exports the wrapper's telemetry
/// aggregates afterwards (a no-op when none is configured).  The probe it
/// attaches lives only for the call, so `sim` runs no further rounds.
sim::Round progress_latency(LbSimulation& sim,
                            const std::vector<graph::Vertex>& senders,
                            graph::Vertex receiver,
                            std::int64_t horizon_phases);

/// The same measurement on a simulation built here over the scheduler's
/// dual-graph reception.  `config` is applied through
/// LbSimulation::configure (thread cap, telemetry, spliced stages; results
/// are byte-identical at every thread cap).
sim::Round progress_latency(const graph::DualGraph& g,
                            std::unique_ptr<sim::LinkScheduler> scheduler,
                            const LbParams& params,
                            const std::vector<graph::Vertex>& senders,
                            graph::Vertex receiver,
                            std::int64_t horizon_phases, std::uint64_t seed,
                            const sim::EngineConfig& config = {});

/// Flood-shape statistics of one saturated-sender LBAlg execution (the E14
/// abstraction-fidelity metrics): mean first-data-reception round over all
/// non-sender vertices (horizon-clamped), the fraction reached, raw
/// single-transmitter deliveries, and acknowledgement latency/count.
struct FloodStats {
  double progress_rounds = 0;  ///< mean first data reception, clamped
  double reached_frac = 0;     ///< fraction of non-senders that received
  double receptions = 0;       ///< raw single-transmitter deliveries
  double ack_latency = 0;      ///< mean over acked broadcasts; 0 if none
  double acked = 0;            ///< acked broadcast count
};

/// Runs `sim` for `horizon_phases` phases with `sender` kept saturated and
/// collects FloodStats.  The simulation must be freshly constructed (no
/// rounds executed, no probes attached).
FloodStats run_flood(LbSimulation& sim, graph::Vertex sender,
                     std::int64_t horizon_phases);

}  // namespace dg::lb
