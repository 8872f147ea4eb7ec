// The Section 2 dual-graph reception rule as a ChannelModel.
//
// A listening vertex u receives iff exactly one neighbor in the round
// topology G_t = E + {scheduler's active unreliable edges} transmitted.
// This code is the former Engine::run_round() reception pass, extracted
// verbatim behind the channel seam: the scheduler-consumption strategy
// (bulk bitmap fill vs per-incident-edge probes), the adaptive-adversary
// override and the fused heard-count/heard-from scan are all preserved, and
// the golden execution digests of tests/determinism_test.cpp pin that the
// extraction is bit-for-bit.
#pragma once

#include <string>

#include "phys/channel.h"
#include "sim/scheduler.h"

namespace dg::phys {

class DualGraphChannel final : public ChannelModel {
 public:
  /// The scheduler must outlive the channel.  bind() commits it (with the
  /// same seed stream the engine historically used), so a scheduler must
  /// not be shared across channels.
  explicit DualGraphChannel(sim::LinkScheduler& scheduler)
      : scheduler_(&scheduler) {}

  void bind(const graph::DualGraph& g, std::uint64_t master_seed) override;
  /// Frontier: every G-neighbor of a transmitter plus every unreliable-
  /// incident endpoint, whether or not the edge fires -- a schedule-
  /// independent superset, so the mask never consumes a scheduler draw.
  void fill_frontier(const Bitmap& transmitting, Bitmap& frontier) override;
  /// Reception: the strategy block (select_strategy), then a scatter
  /// from each transmitter over its round-topology edges.  Its writes are
  /// confined to the frontier by construction, so the mask goes unread.
  void compute_round(sim::Round round, const Bitmap& transmitting,
                     std::span<std::uint64_t> heard,
                     const Bitmap& frontier) override;
  void set_adaptive_adversary(sim::AdaptiveAdversary* adversary) override {
    adaptive_ = adversary;
  }
  bool respects_dual_graph() const override { return true; }
  std::string name() const override;

  const sim::LinkScheduler& scheduler() const noexcept { return *scheduler_; }

 private:
  /// Picks use_bitmap_ for the round (and runs the adaptive plan or the
  /// bulk fill into edge_active_ when the bitmap wins).
  void select_strategy(sim::Round round, const Bitmap& transmitting);

  const graph::DualGraph* graph_ = nullptr;
  sim::LinkScheduler* scheduler_;
  sim::AdaptiveAdversary* adaptive_ = nullptr;

  // Scratch reused every round, sized at bind().
  sim::EdgeBitmap edge_active_;           ///< this round's unreliable subset
  std::vector<bool> transmitting_bools_;  ///< adaptive plan_round view
  /// Strategy picked by select_strategy() for the round's reception pass:
  /// probe edge_active_ (true) or scheduler_->active() (false).
  bool use_bitmap_ = false;
};

}  // namespace dg::phys
