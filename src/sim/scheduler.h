// Oblivious link schedulers (Section 2).
//
// A link scheduler is a sequence G = G_1, G_2, ... fixed at the beginning of
// the execution: each G_t is E plus an arbitrary subset of E' \ E.  The
// interface enforces obliviousness by construction: commit() is called once
// before round 1 with a private random seed, after which active() is a pure
// function of (edge id, round) -- the scheduler never sees any execution
// state, transmission history, or process randomness.
//
// The engine consumes schedules in bulk: once per round it calls
// fill_round(), which materializes the round's whole unreliable-edge subset
// into an EdgeBitmap, so the reception pass costs one bit-probe per edge
// instead of a virtual active() call.  fill_round() must agree bit-for-bit
// with active() (tests/scheduler_bitmap_test.cpp sweeps the contract);
// active() remains the semantic definition and the default implementation.
// The per-edge schedulers (Bernoulli, Flicker, Burst) fill through
// Bitmap::fill_from over the same private predicate their active() calls,
// so the bulk path cannot drift from the definition.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/dual_graph.h"
#include "sim/process.h"
#include "util/bitmap.h"

namespace dg::sim {

/// Word-packed set of UnreliableEdgeIds: bit e = edge e present this round.
using EdgeBitmap = Bitmap;

class LinkScheduler {
 public:
  virtual ~LinkScheduler() = default;

  /// Commits the whole schedule.  Called exactly once, before round 1.
  virtual void commit(const graph::DualGraph& g, std::uint64_t seed) = 0;

  /// Whether unreliable edge `edge` is present in the topology of `round`.
  /// Must be deterministic after commit().
  virtual bool active(graph::UnreliableEdgeId edge, Round round) const = 0;

  /// Writes the whole round-`round` edge subset into `out` (sized by the
  /// caller to the graph's unreliable edge count).  Must equal active()
  /// bit-for-bit.  The default loops active(); concrete schedulers override
  /// with word-filling implementations.
  virtual void fill_round(Round round, EdgeBitmap& out) const {
    out.clear();
    const auto edges = static_cast<graph::UnreliableEdgeId>(out.size());
    for (graph::UnreliableEdgeId e = 0; e < edges; ++e) {
      if (active(e, round)) out.set(e);
    }
  }

  /// True when fill_round() costs O(edges / 64) words rather than per-edge
  /// work (constant or pre-materialized schedules).  The engine then always
  /// takes the bulk path; otherwise it materializes the bitmap only in
  /// rounds dense enough in transmitters to amortize the per-edge fill,
  /// falling back to per-incident-edge active() probes in sparse rounds.
  virtual bool fill_round_is_word_cheap() const { return false; }

  virtual std::string name() const = 0;
};

/// Includes either none or all of E' \ E in every round.  "none" yields the
/// classical reliable radio network G; "all" yields the static graph G'.
class ConstantScheduler final : public LinkScheduler {
 public:
  explicit ConstantScheduler(bool include_all) : include_all_(include_all) {}

  void commit(const graph::DualGraph&, std::uint64_t) override {}
  bool active(graph::UnreliableEdgeId, Round) const override {
    return include_all_;
  }
  void fill_round(Round, EdgeBitmap& out) const override {
    if (include_all_) {
      out.set_all();
    } else {
      out.clear();
    }
  }
  bool fill_round_is_word_cheap() const override { return true; }
  std::string name() const override {
    return include_all_ ? "full-G'" : "full-G";
  }

 private:
  bool include_all_;
};

/// Independently includes each unreliable edge in each round with
/// probability p.  The randomness is derived statelessly from the committed
/// seed (hash of (seed, edge, round)), so the whole infinite schedule is
/// fixed at commit time, satisfying obliviousness literally.
class BernoulliScheduler final : public LinkScheduler {
 public:
  explicit BernoulliScheduler(double p);

  void commit(const graph::DualGraph& g, std::uint64_t seed) override;
  bool active(graph::UnreliableEdgeId edge, Round round) const override;
  void fill_round(Round round, EdgeBitmap& out) const override;
  bool fill_round_is_word_cheap() const override {
    return p_ <= 0.0 || p_ >= 1.0;  // degenerate: set_all / clear
  }
  std::string name() const override;

 private:
  /// The per-(edge, round) coin of a non-degenerate p; active() and
  /// fill_round() both evaluate it.
  bool hit(std::uint64_t edge, Round round) const;

  double p_;
  std::uint64_t seed_ = 0;
  std::uint64_t threshold_ = 0;
};

/// Deterministic periodic flicker: each edge is present in rounds where
/// ((round + phase(edge)) mod period) < duty.  Models links with long
/// coherent up/down intervals; edge phases are randomized at commit time.
class FlickerScheduler final : public LinkScheduler {
 public:
  FlickerScheduler(Round period, Round duty);

  void commit(const graph::DualGraph& g, std::uint64_t seed) override;
  bool active(graph::UnreliableEdgeId edge, Round round) const override;
  void fill_round(Round round, EdgeBitmap& out) const override;
  std::string name() const override;

 private:
  /// The flicker phase test that active() and fill_round() both evaluate.
  bool on(std::size_t edge, Round round) const;

  Round period_;
  Round duty_;
  std::vector<Round> phase_;
};

/// Bursty links: per-edge epochs of `epoch_length` rounds; an edge is
/// present for a whole epoch with probability p_up, independently per
/// (edge, epoch).  Models links with long coherent up/down intervals (the
/// Gilbert-Elliott flavor of unreliability) while staying oblivious: epoch
/// fates are derived statelessly from the committed seed.
class BurstScheduler final : public LinkScheduler {
 public:
  BurstScheduler(Round epoch_length, double p_up);

  void commit(const graph::DualGraph& g, std::uint64_t seed) override;
  bool active(graph::UnreliableEdgeId edge, Round round) const override;
  void fill_round(Round round, EdgeBitmap& out) const override;
  std::string name() const override;

 private:
  /// The epoch that `round` falls in.
  std::uint64_t epoch(Round round) const;
  /// The per-(edge, epoch) coin of a non-degenerate p_up; active() and
  /// fill_round() both evaluate it.
  bool up(std::uint64_t edge, std::uint64_t epoch) const;

  Round epoch_length_;
  double p_up_;
  std::uint64_t seed_ = 0;
  std::uint64_t threshold_ = 0;
};

/// The adversary from the paper's Discussion section: a link schedule
/// "constructed with the intent of thwarting the fixed schedule strategy by
/// including many links (i.e., increasing contention) when the schedule
/// selects high probabilities, and excluding many links when the schedule
/// selects low probabilities."
///
/// The adversary is given, at construction time, the *deterministic,
/// publicly known* round->probability schedule of the algorithm under attack
/// (e.g. Decay's geometric cycle).  It includes every unreliable edge in the
/// rounds where that schedule transmits with probability above `pivot`, and
/// none elsewhere.  This is a legal oblivious scheduler: the schedule
/// depends only on the algorithm's text, never on coin flips or execution
/// state -- which is exactly why it can thwart fixed schedules but not
/// LBAlg's seed-permuted schedules.
class AntiScheduleAdversary final : public LinkScheduler {
 public:
  using ProbabilitySchedule = std::function<double(Round)>;

  AntiScheduleAdversary(ProbabilitySchedule target_schedule, double pivot);

  void commit(const graph::DualGraph& g, std::uint64_t seed) override;
  bool active(graph::UnreliableEdgeId edge, Round round) const override;
  void fill_round(Round round, EdgeBitmap& out) const override;
  bool fill_round_is_word_cheap() const override { return true; }
  std::string name() const override;

 private:
  ProbabilitySchedule schedule_;
  double pivot_;
};

/// Fully explicit schedule: a pre-materialized vector of bitmaps, one per
/// round (cycled if the execution runs longer).  The most general oblivious
/// scheduler; used by tests to script exact topologies.
class ExplicitScheduler final : public LinkScheduler {
 public:
  /// pattern[t][e] == true -> edge e present in round t+1 (and in all
  /// rounds congruent mod the pattern length).
  explicit ExplicitScheduler(std::vector<std::vector<bool>> pattern);

  void commit(const graph::DualGraph& g, std::uint64_t seed) override;
  bool active(graph::UnreliableEdgeId edge, Round round) const override;
  void fill_round(Round round, EdgeBitmap& out) const override;
  bool fill_round_is_word_cheap() const override { return true; }
  std::string name() const override { return "explicit"; }

 private:
  std::vector<std::vector<bool>> pattern_;
  /// pattern_ pre-packed into words at commit() for the bulk path.
  std::vector<EdgeBitmap> packed_;
};

}  // namespace dg::sim
