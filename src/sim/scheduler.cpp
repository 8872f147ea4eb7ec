#include "sim/scheduler.h"

#include <cmath>

#include "util/assert.h"
#include "util/rng.h"

namespace dg::sim {

// ---- BernoulliScheduler ----

BernoulliScheduler::BernoulliScheduler(double p) : p_(p) {
  DG_EXPECTS(p >= 0.0 && p <= 1.0);
}

void BernoulliScheduler::commit(const graph::DualGraph&, std::uint64_t seed) {
  seed_ = seed;
  // Map p to a 64-bit threshold once; active() compares a per-(edge, round)
  // hash against it.
  const long double scaled =
      static_cast<long double>(p_) * 18446744073709551615.0L;
  threshold_ = static_cast<std::uint64_t>(scaled);
}

bool BernoulliScheduler::hit(std::uint64_t edge, Round round) const {
  const std::uint64_t h = splitmix64(
      seed_ ^ splitmix64(edge * 0x100000001b3ULL +
                         static_cast<std::uint64_t>(round)));
  return h < threshold_;
}

bool BernoulliScheduler::active(graph::UnreliableEdgeId edge,
                                Round round) const {
  if (p_ >= 1.0) return true;
  if (p_ <= 0.0) return false;
  return hit(edge, round);
}

void BernoulliScheduler::fill_round(Round round, EdgeBitmap& out) const {
  if (p_ >= 1.0) {
    out.set_all();
    return;
  }
  if (p_ <= 0.0) {
    out.clear();
    return;
  }
  out.fill_from([&](std::size_t e) { return hit(e, round); });
}

std::string BernoulliScheduler::name() const {
  return "bernoulli(p=" + std::to_string(p_) + ")";
}

// ---- FlickerScheduler ----

FlickerScheduler::FlickerScheduler(Round period, Round duty)
    : period_(period), duty_(duty) {
  DG_EXPECTS(period >= 1);
  DG_EXPECTS(duty >= 0 && duty <= period);
}

void FlickerScheduler::commit(const graph::DualGraph& g, std::uint64_t seed) {
  Rng rng(seed, /*stream=*/0x1f1cULL);
  phase_.resize(g.unreliable_edge_count());
  for (auto& p : phase_) {
    p = static_cast<Round>(rng.below(static_cast<std::uint64_t>(period_)));
  }
}

bool FlickerScheduler::on(std::size_t edge, Round round) const {
  return (round + phase_[edge]) % period_ < duty_;
}

bool FlickerScheduler::active(graph::UnreliableEdgeId edge,
                              Round round) const {
  DG_EXPECTS(edge < phase_.size());
  return on(edge, round);
}

void FlickerScheduler::fill_round(Round round, EdgeBitmap& out) const {
  DG_EXPECTS(out.size() <= phase_.size());
  out.fill_from([&](std::size_t e) { return on(e, round); });
}

std::string FlickerScheduler::name() const {
  return "flicker(period=" + std::to_string(period_) +
         ",duty=" + std::to_string(duty_) + ")";
}

// ---- BurstScheduler ----

BurstScheduler::BurstScheduler(Round epoch_length, double p_up)
    : epoch_length_(epoch_length), p_up_(p_up) {
  DG_EXPECTS(epoch_length >= 1);
  DG_EXPECTS(p_up >= 0.0 && p_up <= 1.0);
}

void BurstScheduler::commit(const graph::DualGraph&, std::uint64_t seed) {
  seed_ = seed;
  const long double scaled =
      static_cast<long double>(p_up_) * 18446744073709551615.0L;
  threshold_ = static_cast<std::uint64_t>(scaled);
}

std::uint64_t BurstScheduler::epoch(Round round) const {
  return static_cast<std::uint64_t>((round - 1) / epoch_length_);
}

bool BurstScheduler::up(std::uint64_t edge, std::uint64_t epoch) const {
  const std::uint64_t h =
      splitmix64(seed_ ^ splitmix64(edge * 0x9e3779b1ULL + epoch));
  return h < threshold_;
}

bool BurstScheduler::active(graph::UnreliableEdgeId edge, Round round) const {
  if (p_up_ >= 1.0) return true;
  if (p_up_ <= 0.0) return false;
  return up(edge, epoch(round));
}

void BurstScheduler::fill_round(Round round, EdgeBitmap& out) const {
  if (p_up_ >= 1.0) {
    out.set_all();
    return;
  }
  if (p_up_ <= 0.0) {
    out.clear();
    return;
  }
  const std::uint64_t k = epoch(round);
  out.fill_from([&](std::size_t e) { return up(e, k); });
}

std::string BurstScheduler::name() const {
  return "burst(epoch=" + std::to_string(epoch_length_) +
         ",p=" + std::to_string(p_up_) + ")";
}

// ---- AntiScheduleAdversary ----

AntiScheduleAdversary::AntiScheduleAdversary(
    ProbabilitySchedule target_schedule, double pivot)
    : schedule_(std::move(target_schedule)), pivot_(pivot) {
  DG_EXPECTS(schedule_ != nullptr);
  DG_EXPECTS(pivot >= 0.0 && pivot <= 1.0);
}

void AntiScheduleAdversary::commit(const graph::DualGraph&, std::uint64_t) {}

bool AntiScheduleAdversary::active(graph::UnreliableEdgeId,
                                   Round round) const {
  // High target probability -> flood the topology with unreliable edges to
  // maximize contention; low probability -> withdraw them so too few
  // neighbors transmit.
  return schedule_(round) > pivot_;
}

void AntiScheduleAdversary::fill_round(Round round, EdgeBitmap& out) const {
  // All-or-nothing per round: evaluate the target schedule once.
  if (schedule_(round) > pivot_) {
    out.set_all();
  } else {
    out.clear();
  }
}

std::string AntiScheduleAdversary::name() const { return "anti-schedule"; }

// ---- ExplicitScheduler ----

ExplicitScheduler::ExplicitScheduler(std::vector<std::vector<bool>> pattern)
    : pattern_(std::move(pattern)) {
  DG_EXPECTS(!pattern_.empty());
}

void ExplicitScheduler::commit(const graph::DualGraph& g, std::uint64_t) {
  packed_.clear();
  packed_.reserve(pattern_.size());
  for (const auto& row : pattern_) {
    DG_EXPECTS(row.size() == g.unreliable_edge_count());
    EdgeBitmap packed(row.size());
    for (std::size_t e = 0; e < row.size(); ++e) {
      if (row[e]) packed.set(e);
    }
    packed_.push_back(std::move(packed));
  }
}

bool ExplicitScheduler::active(graph::UnreliableEdgeId edge,
                               Round round) const {
  DG_EXPECTS(round >= 1);
  const auto& row =
      pattern_[static_cast<std::size_t>((round - 1) %
                                        static_cast<Round>(pattern_.size()))];
  DG_EXPECTS(edge < row.size());
  return row[edge];
}

void ExplicitScheduler::fill_round(Round round, EdgeBitmap& out) const {
  DG_EXPECTS(round >= 1);
  DG_EXPECTS(!packed_.empty());  // requires commit()
  const auto& packed =
      packed_[static_cast<std::size_t>((round - 1) %
                                       static_cast<Round>(packed_.size()))];
  DG_EXPECTS(out.size() == packed.size());
  out.copy_from(packed);
}

}  // namespace dg::sim
