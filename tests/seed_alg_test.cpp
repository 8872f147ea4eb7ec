// Unit tests for SeedAlg: parameter formulas, the runner state machine
// (leader election window, adoption, default decision), and the standalone
// SeedProcess.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "seed/seed_alg.h"
#include "sim/packet.h"
#include "util/rng.h"

namespace dg::seed {
namespace {

sim::Packet seed_packet(sim::ProcessId owner, std::uint64_t value) {
  return sim::Packet{owner, sim::SeedPayload{owner, value}};
}

// ---- parameters ----

TEST(SeedAlgParams, PhaseCountIsLogDelta) {
  EXPECT_EQ(SeedAlgParams::make(0.25, 8).num_phases, 3);
  EXPECT_EQ(SeedAlgParams::make(0.25, 16).num_phases, 4);
  EXPECT_EQ(SeedAlgParams::make(0.25, 17).num_phases, 5);  // rounded up
  EXPECT_EQ(SeedAlgParams::make(0.25, 1).num_phases, 1);   // clamped
}

TEST(SeedAlgParams, PhaseLengthIsC4LogSquared) {
  const auto p = SeedAlgParams::make(0.25, 8, /*c4=*/3.0);
  // log2(1/0.25) = 2 -> phase length = 3 * 4 = 12.
  EXPECT_EQ(p.phase_length, 12);
  EXPECT_EQ(p.total_rounds(), 36);
}

TEST(SeedAlgParams, BroadcastProbabilityIsInverseLog) {
  const auto p = SeedAlgParams::make(1.0 / 16.0, 8);
  EXPECT_DOUBLE_EQ(p.broadcast_prob, 0.25);  // 1/log2(16)
  EXPECT_LE(SeedAlgParams::make(0.25, 8).broadcast_prob, 0.5);
}

TEST(SeedAlgParams, RejectsOutOfRangeEps) {
  EXPECT_DEATH(SeedAlgParams::make(0.3, 8), "precondition");   // > 1/4
  EXPECT_DEATH(SeedAlgParams::make(0.0, 8), "precondition");
}

TEST(SeedAlgParams, ShrinkingEpsGrowsPhaseLength) {
  const auto loose = SeedAlgParams::make(0.25, 16);
  const auto tight = SeedAlgParams::make(0.01, 16);
  EXPECT_GT(tight.phase_length, loose.phase_length);
  EXPECT_EQ(tight.num_phases, loose.num_phases);  // depends only on Delta
}

// ---- runner state machine ----

TEST(SeedAlgRunner, NeverTransmitsInLeaderElectionRound) {
  // Leaders broadcast only in the *remaining* rounds of their phase, so no
  // transmission can ever happen in round 0 of any phase.
  const auto params = SeedAlgParams::make(0.25, 16);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    SeedAlgRunner runner(params, /*self=*/1, rng);
    for (int step = 0; step < params.total_rounds(); ++step) {
      auto out = runner.step_transmit(rng);
      if (step % params.phase_length == 0) {
        EXPECT_FALSE(out.has_value()) << "step " << step;
      }
      if (!out.has_value()) runner.step_receive(std::nullopt);
    }
  }
}

TEST(SeedAlgRunner, IsolatedNodeDecidesItself) {
  // With nothing ever received, the node either elects itself leader or
  // defaults -- both commit its own id and initial seed.
  const auto params = SeedAlgParams::make(0.25, 8);
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    SeedAlgRunner runner(params, /*self=*/99, rng);
    while (!runner.done()) {
      if (!runner.step_transmit(rng).has_value()) {
        runner.step_receive(std::nullopt);
      }
    }
    ASSERT_TRUE(runner.decision().has_value());
    EXPECT_EQ(runner.decision()->owner, 99u);
    EXPECT_EQ(runner.decision()->seed_value, runner.initial_seed());
    EXPECT_TRUE(runner.decision()->as_leader || runner.decision()->by_default);
  }
}

TEST(SeedAlgRunner, AdoptsHeardSeedAndGoesInactive) {
  const auto params = SeedAlgParams::make(0.25, 8);
  Rng rng(11);
  SeedAlgRunner runner(params, /*self=*/1, rng);
  // Step into round 2 of phase 1 (no self election at 1/Delta w.h.p. is not
  // guaranteed, so retry trials until the runner is still active).
  auto out = runner.step_transmit(rng);
  if (out.has_value() || runner.decision().has_value()) {
    GTEST_SKIP() << "node elected itself in this trial";
  }
  runner.step_receive(seed_packet(42, 0xbeef));
  ASSERT_TRUE(runner.decision().has_value());
  EXPECT_EQ(runner.decision()->owner, 42u);
  EXPECT_EQ(runner.decision()->seed_value, 0xbeefu);
  EXPECT_FALSE(runner.decision()->as_leader);
  EXPECT_FALSE(runner.decision()->by_default);
  EXPECT_EQ(runner.status(), SeedStatus::inactive);
}

TEST(SeedAlgRunner, FirstHeardSeedWins) {
  const auto params = SeedAlgParams::make(0.25, 8);
  Rng rng(13);
  SeedAlgRunner runner(params, 1, rng);
  if (runner.step_transmit(rng).has_value() ||
      runner.decision().has_value()) {
    GTEST_SKIP() << "node elected itself in this trial";
  }
  runner.step_receive(seed_packet(50, 1));
  if (!runner.done()) {
    runner.step_transmit(rng);
    runner.step_receive(seed_packet(60, 2));  // ignored: already decided
  }
  EXPECT_EQ(runner.decision()->owner, 50u);
}

TEST(SeedAlgRunner, HearingInLastRoundBeatsDefault) {
  // A seed heard in the very last round must be adopted, not defaulted.
  const auto params = SeedAlgParams::make(0.25, 1);  // 1 phase
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    SeedAlgRunner runner(params, 1, rng);
    bool self_elected = false;
    for (int step = 0; step < params.total_rounds(); ++step) {
      const auto out = runner.step_transmit(rng);
      if (runner.decision().has_value() &&
          runner.decision()->owner == 1u) {
        self_elected = true;
        break;
      }
      const bool last = step == params.total_rounds() - 1;
      if (!out.has_value()) {
        runner.step_receive(last ? std::optional<sim::Packet>(
                                       seed_packet(7, 0xfee))
                                 : std::nullopt);
      }
    }
    if (self_elected) continue;
    ASSERT_TRUE(runner.decision().has_value());
    EXPECT_EQ(runner.decision()->owner, 7u);
    EXPECT_FALSE(runner.decision()->by_default);
  }
}

TEST(SeedAlgRunner, LeaderElectionProbabilityRampsUp) {
  // Measure per-phase election frequency on isolated runners: phase h has
  // probability 2^-(num_phases - h + 1), so the last phase is 1/2.
  const auto params = SeedAlgParams::make(0.25, 16);  // 4 phases
  const int trials = 4000;
  std::vector<int> elected_in_phase(params.num_phases + 1, 0);
  Rng rng(17);
  for (int t = 0; t < trials; ++t) {
    SeedAlgRunner runner(params, 1, rng);
    for (int step = 0; step < params.total_rounds(); ++step) {
      const bool had = runner.decision().has_value();
      if (!runner.step_transmit(rng).has_value()) {
        runner.step_receive(std::nullopt);
      }
      if (!had && runner.decision().has_value() &&
          runner.decision()->as_leader) {
        elected_in_phase[step / params.phase_length + 1]++;
        break;
      }
    }
  }
  // Phase 1: p = 1/16; phase 2 conditional p = 1/8, ...
  EXPECT_NEAR(elected_in_phase[1] / double(trials), 1.0 / 16, 0.02);
  const double p2_conditional =
      elected_in_phase[2] / double(trials - elected_in_phase[1]);
  EXPECT_NEAR(p2_conditional, 1.0 / 8, 0.02);
}

TEST(SeedAlgRunner, StepsBeyondTotalAbort) {
  const auto params = SeedAlgParams::make(0.25, 2);
  Rng rng(3);
  SeedAlgRunner runner(params, 1, rng);
  for (int step = 0; step < params.total_rounds(); ++step) {
    if (!runner.step_transmit(rng).has_value()) {
      runner.step_receive(std::nullopt);
    }
  }
  EXPECT_TRUE(runner.done());
  EXPECT_DEATH(runner.step_transmit(rng), "precondition");
}

TEST(SeedAlgRunner, LeaderBroadcastsItsOwnSeed) {
  const auto params = SeedAlgParams::make(0.25, 4);
  Rng rng(23);
  for (int trial = 0; trial < 400; ++trial) {
    SeedAlgRunner runner(params, 77, rng);
    for (int step = 0; step < params.total_rounds(); ++step) {
      const auto out = runner.step_transmit(rng);
      if (out.has_value()) {
        EXPECT_EQ(out->owner, 77u);
        EXPECT_EQ(out->seed_value, runner.initial_seed());
        // Transmitting requires leader status; on the final round of the
        // phase the runner already advanced to inactive for the next round.
        const bool phase_last =
            step % params.phase_length == params.phase_length - 1;
        EXPECT_EQ(runner.status(),
                  phase_last ? SeedStatus::inactive : SeedStatus::leader);
      } else {
        runner.step_receive(std::nullopt);
      }
    }
  }
}

TEST(SeedAlgRunner, InitialSeedsAreIndependentDraws) {
  Rng rng(29);
  const auto params = SeedAlgParams::make(0.25, 4);
  SeedAlgRunner a(params, 1, rng), b(params, 2, rng);
  EXPECT_NE(a.initial_seed(), b.initial_seed());  // w.o.p.
}

// ---- silent horizon: the sparse-round promise ----

SeedAlgParams shape(int num_phases, int phase_length) {
  SeedAlgParams p;
  p.num_phases = num_phases;
  p.phase_length = phase_length;
  p.broadcast_prob = 0.5;
  return p;
}

/// Runs `fn(runner, rng)` after every step (and before the first) of a
/// runner driven densely; receptions are null except for a seed packet
/// with probability 1/8 per listening step, so runners also go inactive by
/// adoption.
template <typename Fn>
void walk(const SeedAlgParams& params, std::uint64_t seed, Fn&& fn) {
  Rng rng(seed);
  Rng feed(seed ^ 0xfeedULL);
  SeedAlgRunner runner(params, 1, rng);
  fn(runner, rng);
  while (!runner.done()) {
    if (!runner.step_transmit(rng).has_value()) {
      runner.step_receive(feed.chance(0.125)
                              ? std::optional<sim::Packet>(seed_packet(9, 3))
                              : std::nullopt);
    }
    fn(runner, rng);
  }
}

void expect_same_runner(const SeedAlgRunner& a, const Rng& rng_a,
                        const SeedAlgRunner& b, const Rng& rng_b,
                        const std::string& what) {
  EXPECT_EQ(a.steps_taken(), b.steps_taken()) << what;
  EXPECT_EQ(a.phase_index(), b.phase_index()) << what;
  EXPECT_EQ(a.round_in_phase(), b.round_in_phase()) << what;
  EXPECT_EQ(a.status(), b.status()) << what;
  ASSERT_EQ(a.decision().has_value(), b.decision().has_value()) << what;
  if (a.decision().has_value()) {
    EXPECT_EQ(a.decision()->owner, b.decision()->owner) << what;
    EXPECT_EQ(a.decision()->seed_value, b.decision()->seed_value) << what;
    EXPECT_EQ(a.decision()->by_default, b.decision()->by_default) << what;
    EXPECT_EQ(a.decision()->as_leader, b.decision()->as_leader) << what;
  }
  Rng next_a = rng_a;
  Rng next_b = rng_b;
  EXPECT_EQ(next_a.bits(), next_b.bits()) << what << ": Rng streams diverged";
}

TEST(SeedAlgRunner, SkipMatchesDenseSilentSteps) {
  // From every reachable state, jumping the whole silent horizon with
  // skip() leaves what the same number of dense null-reception steps
  // leaves -- and those dense steps transmit nothing and draw nothing.
  for (int phases = 1; phases <= 5; ++phases) {
    for (int length : {1, 2, 3, 19}) {
      const SeedAlgParams params = shape(phases, length);
      for (std::uint64_t seed = 0; seed < 12; ++seed) {
        walk(params, seed, [&](const SeedAlgRunner& runner, const Rng& rng) {
          const int h = runner.silent_horizon();
          ASSERT_GE(h, 0);
          ASSERT_LE(h, params.total_rounds() - runner.steps_taken());
          SeedAlgRunner dense = runner;
          Rng dense_rng = rng;
          for (int i = 0; i < h; ++i) {
            ASSERT_FALSE(dense.step_transmit(dense_rng).has_value());
            dense.step_receive(std::nullopt);
          }
          SeedAlgRunner jumped = runner;
          jumped.skip(h);
          expect_same_runner(dense, dense_rng, jumped, rng,
                             std::to_string(phases) + "x" +
                                 std::to_string(length) + " seed " +
                                 std::to_string(seed) + " step " +
                                 std::to_string(runner.steps_taken()));
        });
      }
    }
  }
}

TEST(SeedAlgRunner, SilentHorizonBoundaries) {
  int leaders = 0, phase_starts = 0, last_phase = 0;  // cases exercised
  for (int phases = 1; phases <= 5; ++phases) {
    for (int length : {1, 2, 3, 19}) {
      const SeedAlgParams params = shape(phases, length);
      const int total = params.total_rounds();
      for (std::uint64_t seed = 0; seed < 12; ++seed) {
        walk(params, seed, [&](const SeedAlgRunner& runner, const Rng&) {
          const int h = runner.silent_horizon();
          // Leaders flip a broadcast coin every round.
          if (runner.status() == SeedStatus::leader) {
            ++leaders;
            EXPECT_EQ(h, 0);
          }
          if (runner.status() != SeedStatus::active) return;
          // An active runner flips the election coin at every phase start,
          // which is every step when a phase is one round long.
          if (runner.round_in_phase() == 0 || length == 1) {
            ++phase_starts;
            EXPECT_EQ(h, 0);
          }
          // In the last phase the final step, whose null reception takes
          // the default decision, is never inside the horizon.
          if (runner.phase_index() == phases - 1 &&
              runner.round_in_phase() > 0) {
            ++last_phase;
            EXPECT_EQ(runner.steps_taken() + h, total - 1);
          }
        });
      }
    }
  }
  EXPECT_GT(leaders, 0);
  EXPECT_GT(phase_starts, 0);
  EXPECT_GT(last_phase, 0);
}

}  // namespace
}  // namespace dg::seed
