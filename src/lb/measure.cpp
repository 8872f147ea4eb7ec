#include "lb/measure.h"

#include <utility>

#include "stats/probes.h"

namespace dg::lb {

sim::Round progress_latency(LbSimulation& sim,
                            const std::vector<graph::Vertex>& senders,
                            graph::Vertex receiver,
                            std::int64_t horizon_phases) {
  stats::FirstReceptionProbe probe(sim.network().size());
  sim.add_observer(&probe);
  sim.keep_busy(senders);
  for (std::int64_t p = 0; p < horizon_phases; ++p) {
    sim.run_phases(1);
    if (probe.first_reception(receiver) != 0) break;
  }
  sim.export_telemetry();
  return probe.first_reception(receiver);
}

sim::Round progress_latency(const graph::DualGraph& g,
                            std::unique_ptr<sim::LinkScheduler> scheduler,
                            const LbParams& params,
                            const std::vector<graph::Vertex>& senders,
                            graph::Vertex receiver,
                            std::int64_t horizon_phases, std::uint64_t seed,
                            const sim::EngineConfig& config) {
  LbSimulation sim(g, std::move(scheduler), params, seed);
  sim.configure(config);
  return progress_latency(sim, senders, receiver, horizon_phases);
}

FloodStats run_flood(LbSimulation& sim, graph::Vertex sender,
                     std::int64_t horizon_phases) {
  const std::size_t n = sim.network().size();
  stats::FirstReceptionProbe probe(n);
  stats::TrafficProbe traffic;
  sim.add_observer(&probe);
  sim.add_observer(&traffic);
  sim.keep_busy({sender});
  sim.run_phases(horizon_phases);

  FloodStats out;
  const auto horizon = static_cast<double>(sim.round());
  double progress_total = 0;
  for (graph::Vertex v = 0; v < static_cast<graph::Vertex>(n); ++v) {
    if (v == sender) continue;
    const auto first = probe.first_reception(v);
    if (first != 0) out.reached_frac += 1;
    progress_total += first != 0 ? static_cast<double>(first) : horizon;
  }
  out.progress_rounds = progress_total / static_cast<double>(n - 1);
  out.reached_frac /= static_cast<double>(n - 1);
  out.receptions = static_cast<double>(traffic.receptions());
  double total = 0;
  for (const auto& rec : sim.checker().broadcasts()) {
    if (!rec.acked()) continue;
    total += static_cast<double>(rec.ack_round - rec.input_round);
    out.acked += 1;
  }
  out.ack_latency = out.acked != 0 ? total / out.acked : 0;
  return out;
}

}  // namespace dg::lb
