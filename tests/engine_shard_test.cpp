// Differential harness for the sharded round engine: the same execution at
// round_threads 1 (the serial loop), 2, 3 and 8 must be *byte-identical* --
// every observer event in the same order, every golden-style digest equal,
// every TrafficStats ledger field equal.  Determinism is structural (disjoint
// block writes, per-vertex rng streams, serial observer replay in ascending
// vertex order), so these sweeps are the engine's strongest contract: any
// scheduling-dependent leak shows up as a stream mismatch, not a flake.
//
// The property section stresses the block geometry where off-by-ones live:
// odd vertex counts straddling the 64-vertex block alignment, networks
// smaller than the thread count (serial fallback), isolated vertices, and
// randomized geometric topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/spec.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "phys/sinr.h"
#include "seed/seed_alg.h"
#include "sim/engine.h"
#include "sim/engine_config.h"
#include "sim/scheduler.h"
#include "sim/splice.h"
#include "traffic/spec.h"
#include "util/rng.h"

namespace dg::sim {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 3, 8};

/// Records every event as a formatted line; vectors compare with exact
/// failure positions, unlike a bare digest.
class StreamObserver final : public Observer {
 public:
  const std::vector<std::string>& events() const noexcept { return events_; }
  /// Interleaves a non-observer event (e.g. an LB service output).
  void append(std::string line) { events_.push_back(std::move(line)); }

  void on_round_begin(Round round) override {
    line() << "begin " << round;
    push();
  }
  void on_transmit(Round round, graph::Vertex v, const Packet& p) override {
    line() << "tx " << round << ' ' << v << ' ' << p.sender << ' '
           << payload_word(p);
    push();
  }
  void on_receive(Round round, graph::Vertex u, graph::Vertex from,
                  const Packet& p) override {
    line() << "rx " << round << ' ' << u << ' ' << from << ' '
           << payload_word(p);
    push();
  }
  void on_silence(Round round, graph::Vertex u, bool collision) override {
    line() << "sil " << round << ' ' << u << ' ' << (collision ? 1 : 0);
    push();
  }
  void on_round_end(Round round) override {
    line() << "end " << round;
    push();
  }

 private:
  static std::uint64_t payload_word(const Packet& p) {
    if (p.is_seed()) return p.seed().owner ^ (p.seed().seed_value * 3U);
    return p.data().id.origin ^ (p.data().id.seq * 5U) ^
           (p.data().content * 7U);
  }
  std::ostringstream& line() {
    os_.str("");
    return os_;
  }
  void push() { events_.push_back(os_.str()); }

  std::ostringstream os_;
  std::vector<std::string> events_;
};

/// Coin-flip transmitter that also ledgers everything it hears, so the
/// comparison covers process-visible state, not just observer streams.
class ShardCoinProcess final : public Process {
 public:
  explicit ShardCoinProcess(ProcessId id) : Process(id) {}

  std::optional<Packet> transmit(RoundContext& ctx) override {
    if (!ctx.rng().chance(0.5)) return std::nullopt;
    return Packet{id(), DataPayload{MessageId{id(), ++seq_}, seq_ * 11ULL}};
  }
  void receive(const std::optional<Packet>& packet,
               RoundContext& ctx) override {
    if (packet.has_value() && packet->is_data()) {
      heard_hash_ = splitmix64(heard_hash_ ^ packet->data().content ^
                               static_cast<std::uint64_t>(ctx.round()));
    }
  }
  bool shard_safe() const override { return true; }

  std::uint64_t heard_hash() const noexcept { return heard_hash_; }

 private:
  std::uint32_t seq_ = 0;
  std::uint64_t heard_hash_ = 0x243f6a8885a308d3ULL;
};

std::vector<std::unique_ptr<Process>> shard_coins(std::size_t n,
                                                  std::uint64_t id_seed) {
  const auto ids = assign_ids(n, id_seed);
  std::vector<std::unique_ptr<Process>> procs;
  procs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<ShardCoinProcess>(ids[v]));
  }
  return procs;
}

struct RunResult {
  std::vector<std::string> events;
  std::vector<std::uint64_t> heard;  ///< per-vertex process end state
};

/// One coin-process execution over `g` at the given thread cap.
RunResult run_once(const graph::DualGraph& g,
                   const std::function<std::unique_ptr<LinkScheduler>()>&
                       make_scheduler,
                   std::size_t round_threads, Round rounds,
                   std::uint64_t master_seed) {
  auto sched = make_scheduler();
  Engine engine(g, *sched, shard_coins(g.size(), master_seed ^ 0x5eedULL),
                master_seed);
  engine.configure(EngineConfig{}.with_round_threads(round_threads));
  StreamObserver stream;
  engine.add_observer(&stream);
  engine.run_rounds(rounds);
  RunResult result;
  result.events = stream.events();
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    result.heard.push_back(
        dynamic_cast<const ShardCoinProcess&>(engine.process(v)).heard_hash());
  }
  return result;
}

/// Asserts byte-identical runs across kThreadCounts, with the serial run as
/// the reference.
void expect_thread_invariant(
    const graph::DualGraph& g,
    const std::function<std::unique_ptr<LinkScheduler>()>& make_scheduler,
    Round rounds, std::uint64_t master_seed, const std::string& what) {
  const RunResult serial = run_once(g, make_scheduler, 1, rounds, master_seed);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const RunResult sharded =
        run_once(g, make_scheduler, threads, rounds, master_seed);
    ASSERT_EQ(serial.events.size(), sharded.events.size())
        << what << " @ " << threads << " threads";
    for (std::size_t i = 0; i < serial.events.size(); ++i) {
      ASSERT_EQ(serial.events[i], sharded.events[i])
          << what << " @ " << threads << " threads, event " << i;
    }
    ASSERT_EQ(serial.heard, sharded.heard)
        << what << " @ " << threads << " threads (process state)";
  }
}

graph::DualGraph geometric(std::size_t n, std::uint64_t seed) {
  graph::GeometricSpec spec;
  spec.n = n;
  spec.side = 4.0;
  spec.r = 1.5;
  Rng rng(seed);
  return graph::random_geometric(spec, rng);
}

// ---- the differential matrix: topology x scheduler ----

TEST(EngineShardDifferential, GridAcrossSchedulers) {
  const auto g = graph::grid(16, 16, 1.0, 1.5);  // n=256: 2+ real blocks
  expect_thread_invariant(
      g, [] { return std::make_unique<BernoulliScheduler>(0.5); }, 60, 101,
      "grid/bernoulli");
  expect_thread_invariant(
      g, [] { return std::make_unique<FlickerScheduler>(7, 3); }, 60, 102,
      "grid/flicker");
  expect_thread_invariant(
      g, [] { return std::make_unique<ConstantScheduler>(true); }, 40, 103,
      "grid/full-gprime");
}

TEST(EngineShardDifferential, GeometricAndLine) {
  expect_thread_invariant(
      geometric(200, 77), [] { return std::make_unique<BernoulliScheduler>(0.3); },
      60, 201, "geometric/bernoulli");
  expect_thread_invariant(
      graph::line(150, 1.0, 1.5),
      [] { return std::make_unique<BurstScheduler>(5, 0.4); }, 60, 202,
      "line/burst");
}

TEST(EngineShardDifferential, SinrChannel) {
  // The SINR reception path in a sharded round: one serial compute_round()
  // whose far-field fill fans out over the engine's pool, each receiver
  // cell keeping its accumulation order, so the floating-point verdicts
  // are bit-for-bit equal to the serial round's.
  const auto g = graph::grid(16, 16, 1.0, 1.5);
  phys::SinrParams params;  // defaults: alpha 3, beta 2, noise 0.1
  const Round rounds = 40;
  const std::uint64_t master = 301;

  const auto run = [&](std::size_t threads) {
    phys::SinrChannel channel(params);
    Engine engine(g, channel, shard_coins(g.size(), master ^ 0x5eedULL),
                  master);
    engine.configure(EngineConfig{}.with_round_threads(threads));
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(rounds);
    return stream.events();
  };
  const auto serial = run(1);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const auto sharded = run(threads);
    ASSERT_EQ(serial.size(), sharded.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], sharded[i]) << threads << " threads, event " << i;
    }
  }
}

// ---- the full LB stack: observer streams + TrafficStats ledgers ----

/// Every integer field of the injector ledger, as a comparable tuple-ish
/// vector (means derive from these, so integer equality is the strongest
/// form of "byte-identical").
std::vector<std::uint64_t> ledger(const traffic::TrafficStats& ts) {
  return {ts.offered,          ts.enqueued,        ts.dropped,
          ts.admitted,         ts.acked,           ts.aborted,
          ts.first_recvs,      ts.wait_sum,        ts.ack_latency_sum,
          ts.recv_latency_sum, ts.depth_samples,   ts.depth_sum,
          ts.depth_max,        ts.crash_requeues,  ts.readmitted};
}

TEST(EngineShardDifferential, LbStackWithTrafficLedger) {
  const auto g = graph::grid(12, 12, 1.0, 1.5);  // n=144
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);

  traffic::TrafficSpec tspec;
  ASSERT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");

  const auto run = [&](std::size_t threads) {
    lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                         /*master_seed=*/2027);
    sim.configure(EngineConfig{}.with_round_threads(threads));
    StreamObserver stream;
    sim.add_observer(&stream);
    sim.traffic().set_queue_capacity(4);
    sim.add_traffic(traffic::build_source(tspec, g.size(),
                                          derive_seed(2027, 0x7fcULL)));
    sim.run_phases(3);
    return std::make_pair(stream.events(), ledger(sim.traffic().stats()));
  };

  const auto serial = run(1);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const auto sharded = run(threads);
    ASSERT_EQ(serial.second, sharded.second)
        << threads << " threads (traffic ledger)";
    ASSERT_EQ(serial.first.size(), sharded.first.size()) << threads;
    for (std::size_t i = 0; i < serial.first.size(); ++i) {
      ASSERT_EQ(serial.first[i], sharded.first[i])
          << threads << " threads, event " << i;
    }
  }
}

TEST(EngineShardDifferential, LbStackUnderFaultPlan) {
  // Crash/recover schedules are applied serially at the top of both round
  // loops, so a faulted execution must stay byte-identical across thread
  // counts -- observer stream, traffic ledger (including the crash-requeue
  // counters) and the checker's degradation ledger alike.
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);

  traffic::TrafficSpec tspec;
  ASSERT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");
  fault::FaultSpec fspec;
  ASSERT_EQ(fault::parse_fault_spec("poisson:0.1:96", fspec), "");

  const auto run = [&](std::size_t threads) {
    lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                         /*master_seed=*/2028);
    sim.configure(EngineConfig{}.with_round_threads(threads));
    StreamObserver stream;
    sim.add_observer(&stream);
    sim.add_traffic(traffic::build_source(tspec, g.size(),
                                          derive_seed(2028, 0x7fcULL)));
    const auto plan = fault::build_fault_plan(fspec);
    sim.configure(EngineConfig{}.with_fault_plan(plan.get()));
    sim.run_phases(3);
    const lb::DegradationLedger& led = sim.ledger();
    std::vector<std::uint64_t> fault_ledger = {
        led.crashes,
        led.recoveries,
        led.faulty_progress.trials(),
        led.faulty_progress.successes(),
        led.faulty_reliability.trials(),
        led.faulty_reliability.successes(),
        led.restab_count,
        led.restab_rounds_sum,
        led.fault_rounds,
        led.acks_in_fault_rounds};
    auto all = ledger(sim.traffic().stats());
    all.insert(all.end(), fault_ledger.begin(), fault_ledger.end());
    return std::make_pair(stream.events(), all);
  };

  const auto serial = run(1);
  EXPECT_GT(serial.second[13], 0u) << "no crash-requeues; weak fixture";
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const auto sharded = run(threads);
    ASSERT_EQ(serial.second, sharded.second)
        << threads << " threads (traffic + degradation ledgers)";
    ASSERT_EQ(serial.first.size(), sharded.first.size()) << threads;
    for (std::size_t i = 0; i < serial.first.size(); ++i) {
      ASSERT_EQ(serial.first[i], sharded.first[i])
          << threads << " threads, event " << i;
    }
  }
}

// ---- obs telemetry: the logical domain is part of the contract ----

TEST(EngineShardDifferential, LogicalMetricsByteIdentical) {
  // The obs::Registry logical dump (counters, gauges, histograms minus the
  // timing domain) must be byte-for-byte equal at every thread count: the
  // engine records logical metrics only at serial seams.  Timing metrics
  // exist in every run but are excluded by json(false) by construction.
  const auto g = graph::grid(16, 16, 1.0, 1.5);
  const auto run = [&](std::size_t threads) {
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, shard_coins(g.size(), 0xAB5eedULL), 0xAB);
    engine.configure(EngineConfig{}.with_round_threads(threads));
    obs::Registry registry;
    engine.configure(EngineConfig{}.with_telemetry(&registry));
    engine.run_rounds(48);
    return registry.json(/*include_timing=*/false);
  };
  const std::string serial = run(1);
  EXPECT_NE(serial.find("engine.rounds"), std::string::npos);
  EXPECT_NE(serial.find("engine.tx_per_round"), std::string::npos);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    ASSERT_EQ(serial, run(threads)) << threads << " threads";
  }
}

TEST(EngineShardDifferential, LogicalMetricsByteIdenticalUnderFaultPlan) {
  // The full stack's logical telemetry -- engine counters, fault
  // crash/recover counters, traffic ledger sums, checker tallies exported
  // by LbSimulation::export_telemetry -- under a crash/recover schedule.
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  traffic::TrafficSpec tspec;
  ASSERT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");
  fault::FaultSpec fspec;
  ASSERT_EQ(fault::parse_fault_spec("poisson:0.1:96", fspec), "");

  const auto run = [&](std::size_t threads) {
    lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                         /*master_seed=*/2029);
    sim.configure(EngineConfig{}.with_round_threads(threads));
    sim.add_traffic(traffic::build_source(tspec, g.size(),
                                          derive_seed(2029, 0x7fcULL)));
    const auto plan = fault::build_fault_plan(fspec);
    sim.configure(EngineConfig{}.with_fault_plan(plan.get()));
    obs::Registry registry;
    sim.configure(EngineConfig{}.with_telemetry(&registry));
    sim.run_phases(3);
    sim.export_telemetry();
    return registry.json(/*include_timing=*/false);
  };

  const std::string serial = run(1);
  EXPECT_NE(serial.find("engine.faults.crashes"), std::string::npos);
  EXPECT_NE(serial.find("traffic.acked"), std::string::npos);
  EXPECT_NE(serial.find("lb.fault.crashes"), std::string::npos);
  for (std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    ASSERT_EQ(serial, run(threads)) << threads << " threads";
  }
}

// ---- shard-boundary properties ----

TEST(EngineShardProperty, OddSizesStraddlingBlockAlignment) {
  // Vertex counts around the 64-vertex block alignment: last-block
  // truncation, exactly-two-blocks, one-past.  Short horizons keep the
  // sweep fast; every round still crosses both parallel phases.
  for (std::size_t n : {65u, 127u, 128u, 129u, 191u, 300u}) {
    expect_thread_invariant(
        geometric(n, 0x9000 + n),
        [] { return std::make_unique<BernoulliScheduler>(0.4); }, 24,
        0x600 + n, "odd-n geometric n=" + std::to_string(n));
  }
}

TEST(EngineShardProperty, SmallerThanThreadCountFallsBackSerial) {
  // n < threads (and n < one block): the dispatcher must take the serial
  // loop and produce the identical stream -- the knob is an upper bound,
  // never a requirement.
  for (std::size_t n : {1u, 3u, 7u}) {
    graph::DualGraph g(n);
    for (graph::Vertex v = 0; v + 1 < n; ++v) g.add_reliable_edge(v, v + 1);
    g.finalize();
    expect_thread_invariant(
        g, [] { return std::make_unique<ConstantScheduler>(true); }, 16,
        0x700 + n, "tiny n=" + std::to_string(n));
  }
}

TEST(EngineShardProperty, IsolatedVerticesAndEmptyBlocks) {
  // 90 isolated vertices after a 40-vertex path: whole shard blocks with
  // no edges at all must still zero their heard_ range and fire silence
  // events in order.
  graph::DualGraph g(130);
  for (graph::Vertex v = 0; v + 1 < 40; ++v) g.add_reliable_edge(v, v + 1);
  g.add_unreliable_edge(0, 129);  // one long unreliable edge into the tail
  g.finalize();
  expect_thread_invariant(
      g, [] { return std::make_unique<BernoulliScheduler>(0.5); }, 32, 0x800,
      "isolated-tail");
}

TEST(EngineShardProperty, RandomizedTopologySweep) {
  // Randomized geometric graphs (connectivity, degree skew and component
  // structure vary with the seed) -- the catch-all net under the targeted
  // shapes above.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    expect_thread_invariant(
        geometric(140 + 17 * seed, seed),
        [] { return std::make_unique<BernoulliScheduler>(0.35); }, 20,
        0x900 + seed, "random sweep seed=" + std::to_string(seed));
  }
}

// ---- computed frontier vs the oracle mode ----
//
// Every suite above already runs with the session default (computed
// frontier with parking unless DG_SPARSE_ROUNDS=0), and CI runs the whole
// suite once more in the oracle mode, so every golden is checked against
// both.  This section pins the two *explicitly*: the same execution with
// the computed frontier and with the oracle mode (full mask, no parking)
// must be byte-identical -- observer stream, process end state, traffic
// and degradation ledgers, logical telemetry -- at every thread count.

/// run_once with the oracle switch forced, instead of the session default.
RunResult run_once_sparse(const graph::DualGraph& g,
                          const std::function<std::unique_ptr<LinkScheduler>()>&
                              make_scheduler,
                          std::size_t round_threads, Round rounds,
                          std::uint64_t master_seed, bool sparse) {
  auto sched = make_scheduler();
  Engine engine(g, *sched, shard_coins(g.size(), master_seed ^ 0x5eedULL),
                master_seed);
  engine.configure(EngineConfig{}
                       .with_round_threads(round_threads)
                       .with_sparse_rounds(sparse));
  EXPECT_EQ(engine.sparse_rounds(), sparse);
  StreamObserver stream;
  engine.add_observer(&stream);
  engine.run_rounds(rounds);
  RunResult result;
  result.events = stream.events();
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    result.heard.push_back(
        dynamic_cast<const ShardCoinProcess&>(engine.process(v)).heard_hash());
  }
  return result;
}

void expect_sparse_invariant(
    const graph::DualGraph& g,
    const std::function<std::unique_ptr<LinkScheduler>()>& make_scheduler,
    Round rounds, std::uint64_t master_seed, const std::string& what) {
  for (std::size_t threads : kThreadCounts) {
    const RunResult dense =
        run_once_sparse(g, make_scheduler, threads, rounds, master_seed,
                        /*sparse=*/false);
    const RunResult sparse =
        run_once_sparse(g, make_scheduler, threads, rounds, master_seed,
                        /*sparse=*/true);
    ASSERT_EQ(dense.events.size(), sparse.events.size())
        << what << " @ " << threads << " threads";
    for (std::size_t i = 0; i < dense.events.size(); ++i) {
      ASSERT_EQ(dense.events[i], sparse.events[i])
          << what << " @ " << threads << " threads, event " << i;
    }
    ASSERT_EQ(dense.heard, sparse.heard)
        << what << " @ " << threads << " threads (process state)";
  }
}

TEST(EngineSparseDifferential, CoinHarnessAcrossTopologies) {
  expect_sparse_invariant(
      graph::grid(12, 12, 1.0, 1.5),
      [] { return std::make_unique<BernoulliScheduler>(0.5); }, 40, 0xA01,
      "grid/bernoulli");
  expect_sparse_invariant(
      geometric(150, 88), [] { return std::make_unique<BurstScheduler>(5, 0.4); },
      40, 0xA02, "geometric/burst");
  // Word-boundary shapes: the frontier bitmap and the per-word park
  // minimums live on 64-vertex granularity.
  for (std::size_t n : {63u, 65u, 129u}) {
    expect_sparse_invariant(
        geometric(n, 0xA000 + n),
        [] { return std::make_unique<BernoulliScheduler>(0.4); }, 24,
        0xA10 + n, "odd-n n=" + std::to_string(n));
  }
}

TEST(EngineSparseDifferential, SinrChannel) {
  // The SINR frontier (near-cell membership of transmitter cells) against
  // the verdict loop over a full mask.
  const auto g = graph::grid(14, 14, 1.0, 1.5);
  const auto run = [&](std::size_t threads, bool sparse) {
    phys::SinrParams params;
    phys::SinrChannel channel(params);
    Engine engine(g, channel, shard_coins(g.size(), 0xB0B ^ 0x5eedULL), 0xB0B);
    engine.configure(EngineConfig{}
                         .with_round_threads(threads)
                         .with_sparse_rounds(sparse));
    EXPECT_EQ(engine.sparse_rounds(), sparse);
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(32);
    return stream.events();
  };
  for (std::size_t threads : kThreadCounts) {
    const auto dense = run(threads, false);
    const auto sparse = run(threads, true);
    ASSERT_EQ(dense.size(), sparse.size()) << threads << " threads";
    for (std::size_t i = 0; i < dense.size(); ++i) {
      ASSERT_EQ(dense[i], sparse[i]) << threads << " threads, event " << i;
    }
  }
}

TEST(EngineSparseDifferential, LbStackMatrix) {
  // The full LB stack -- where silent_steps() actually parks vertices
  // (SeedAlg listeners up to their next election coin, decided preamble
  // nodes up to the body, receiving-state bodies, post-recovery stretches,
  // done seed runners) -- across layout x traffic shape x fault plan x
  // thread count.  Each run covers two whole groups; a scripted run also
  // covers the third group's preamble, so its vertices, crashed while
  // parked in the first preamble and recovered inside the second, rejoin
  // with a fresh preamble before the run ends.
  struct Layout {
    const char* name;
    graph::DualGraph g;
    int phases_per_seed;
  };
  const Layout layouts[] = {{"grid", graph::grid(10, 10, 1.0, 1.5), 1},
                            {"geometric", geometric(150, 77), 1},
                            {"grid/k=3", graph::grid(10, 10, 1.0, 1.5), 3}};
  const char* traffics[] = {"poisson:0.05", "burst:48:3", "hotspot:0.05:0.7"};
  const char* faults[] = {"none", "poisson:0.1:96", "script"};

  for (const Layout& layout : layouts) {
    lb::LbScales scales;
    scales.ack_scale = 0.02;
    auto params = lb::LbParams::calibrated(
        0.1, 1.5, layout.g.delta(), layout.g.delta_prime(), scales);
    params.phases_per_seed = layout.phases_per_seed;
    const Round crash_at = params.t_s / 2;
    const Round recover_at = params.group_length() + params.t_s / 2 + 1;
    std::vector<fault::FaultEvent> script;
    for (graph::Vertex v = 3; v < layout.g.size(); v += 7) {
      script.push_back({crash_at, v, fault::FaultKind::kCrash});
    }
    for (graph::Vertex v = 3; v < layout.g.size(); v += 7) {
      script.push_back({recover_at, v, fault::FaultKind::kRecover});
    }
    for (const char* traffic : traffics) {
      // The seed-reuse layout's runs are twice as long, and the scripted
      // plan targets the preamble, not the traffic: poisson only.
      const bool poisson = std::string(traffic).rfind("poisson", 0) == 0;
      if (layout.phases_per_seed != 1 && !poisson) continue;
      for (const std::string fault_text : faults) {
        if (fault_text == "script" && !poisson) continue;
        const Round rounds = 2 * params.group_length() +
                             (fault_text == "script" ? params.t_s + 1 : 0);
        // Scripted vertices whose silent promise covers the crash round.
        std::size_t parked_at_crash = 0;
        const auto run = [&](std::size_t threads, bool sparse) {
          traffic::TrafficSpec tspec;
          EXPECT_EQ(traffic::parse_traffic_spec(traffic, tspec), "");
          lb::LbSimulation sim(layout.g,
                               std::make_unique<BernoulliScheduler>(0.5),
                               params, /*master_seed=*/2030);
          sim.configure(EngineConfig{}
                            .with_round_threads(threads)
                            .with_sparse_rounds(sparse));
          EXPECT_EQ(sim.engine().sparse_rounds(), sparse);
          StreamObserver stream;
          sim.add_observer(&stream);
          sim.add_traffic(traffic::build_source(
              tspec, layout.g.size(), derive_seed(2030, 0x7fcULL)));
          std::unique_ptr<fault::FaultPlan> plan;
          if (fault_text == "script") {
            plan = std::make_unique<fault::ScriptFaultPlan>(script);
          } else if (fault_text != "none") {
            fault::FaultSpec fspec;
            EXPECT_EQ(fault::parse_fault_spec(fault_text, fspec), "");
            plan = fault::build_fault_plan(fspec);
          }
          if (plan != nullptr) {
            sim.configure(EngineConfig{}.with_fault_plan(plan.get()));
          }
          sim.run_rounds(crash_at - 1);
          if (!sparse && fault_text == "script") {
            // A pure promise query on the densely stepped oracle.
            parked_at_crash = 0;
            for (std::size_t i = 0; i < script.size() / 2; ++i) {
              if (sim.process(script[i].vertex).silent_steps(0) > 0) {
                ++parked_at_crash;
              }
            }
          }
          sim.run_rounds(rounds - (crash_at - 1));
          auto all = ledger(sim.traffic().stats());
          const lb::DegradationLedger& led = sim.ledger();
          all.insert(all.end(),
                     {led.crashes, led.recoveries, led.restab_count,
                      led.restab_rounds_sum, led.fault_rounds,
                      led.acks_in_fault_rounds});
          return std::make_pair(stream.events(), all);
        };
        const std::string what =
            std::string(layout.name) + "/" + traffic + "/" + fault_text;
        // The full thread sweep rides on the poisson shape of the paper's
        // layout; the other inputs check the serial and widest-parallel
        // endpoints.
        const bool full_sweep = poisson && layout.phases_per_seed == 1;
        for (std::size_t threads : kThreadCounts) {
          if (!full_sweep && threads != 1 && threads != 8) continue;
          const auto dense = run(threads, false);
          const auto sparse = run(threads, true);
          if (fault_text == "script") {
            EXPECT_GT(parked_at_crash, 0u)
                << what << ": no scripted vertex parked; weak fixture";
          }
          ASSERT_EQ(dense.second, sparse.second)
              << what << " @ " << threads << " threads (ledgers)";
          ASSERT_EQ(dense.first.size(), sparse.first.size())
              << what << " @ " << threads << " threads";
          for (std::size_t i = 0; i < dense.first.size(); ++i) {
            ASSERT_EQ(dense.first[i], sparse.first[i])
                << what << " @ " << threads << " threads, event " << i;
          }
        }
      }
    }
  }
}

TEST(EngineSparseDifferential, PreambleStepsParked) {
  // engine.steps counts the vertex steps actually taken.  A silent promise
  // of 0 everywhere would keep every execution byte-identical yet step
  // every vertex in every preamble round again; this pins the saving.  The
  // count is summed per block, so it is the same at every thread count.
  const auto g = graph::grid(32, 32, 1.0, 1.5);
  const auto params = lb::LbParams::calibrated(0.1, 1.5, g.delta(),
                                               g.delta_prime(), {});
  const std::uint64_t all = g.size() * static_cast<std::uint64_t>(params.t_s);
  std::uint64_t serial_steps = 0;
  for (bool sparse : {true, false}) {
    for (std::size_t threads : kThreadCounts) {
      obs::Registry registry;
      lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5),
                           params, /*master_seed=*/77);
      sim.configure(EngineConfig{}
                        .with_round_threads(threads)
                        .with_sparse_rounds(sparse)
                        .with_telemetry(&registry));
      sim.run_rounds(params.t_s);
      const std::uint64_t preamble =
          registry.counter("engine.steps", obs::Domain::kTiming);
      sim.run_rounds(params.t_prog);  // the rest of the phase
      const std::string what = std::string(sparse ? "sparse" : "oracle") +
                               " @ " + std::to_string(threads) + " threads";
      if (!sparse) {
        EXPECT_EQ(preamble, all) << what;
        EXPECT_EQ(registry.counter("engine.steps", obs::Domain::kTiming),
                  g.size() * static_cast<std::uint64_t>(params.phase_length()))
            << what;
        continue;
      }
      EXPECT_LE(2 * preamble, all) << what;
      if (threads == 1) serial_steps = preamble;
      EXPECT_EQ(preamble, serial_steps) << what;
    }
  }
}

TEST(EngineSparseDifferential, LogicalMetricsByteIdenticalAcrossSparse) {
  // The logical telemetry domain must not leak which mask ran; the
  // frontier counters (engine.active_blocks, engine.frontier_fraction)
  // live in the excluded timing domain.
  const auto g = graph::grid(16, 16, 1.0, 1.5);
  const auto run = [&](bool sparse) {
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, shard_coins(g.size(), 0xAB5eedULL), 0xAB);
    obs::Registry registry;
    engine.configure(
        EngineConfig{}.with_sparse_rounds(sparse).with_telemetry(&registry));
    engine.run_rounds(48);
    return registry.json(/*include_timing=*/false);
  };
  ASSERT_EQ(run(false), run(true));
}

// ---- splices under frontier dispatch ----
//
// Installing a splice leaves the frontier dispatch on.  A splice whose
// declared reads include heard_words (tap:heard_words, dedup) gets an
// all-ones activity mask, the others keep the computed frontier; parked
// processes stay parked either way.  Each splice must still match the
// oracle mode byte for byte.

const char* const kSplices[] = {"noop", "tap:transmit_bitmap",
                                "tap:heard_words", "dedup:4"};

SpliceSpec splice(const std::string& text) {
  SpliceSpec spec;
  std::string error;
  EXPECT_TRUE(parse_splice_spec(text, spec, error)) << error;
  return spec;
}

/// Events, process end state and the logical METRICS dump of one run.
struct SplicedResult {
  std::vector<std::string> events;
  std::vector<std::uint64_t> state;
  std::string logical;
};

void expect_same(const SplicedResult& oracle, const SplicedResult& frontier,
                 const std::string& what) {
  ASSERT_EQ(oracle.state, frontier.state) << what << " (process state)";
  ASSERT_EQ(oracle.logical, frontier.logical) << what << " (METRICS)";
  ASSERT_EQ(oracle.events.size(), frontier.events.size()) << what;
  for (std::size_t i = 0; i < oracle.events.size(); ++i) {
    ASSERT_EQ(oracle.events[i], frontier.events[i])
        << what << ", event " << i;
  }
}

TEST(EngineSparseDifferential, SplicesOnParkedSeedProcesses) {
  // Seed processes park forever once their runner is done, making them the
  // sharpest fixture: the splice goes in either before round 1 (so it sees
  // the whole SeedAlg run) or mid-run, after every vertex has parked.
  const auto g = graph::grid(12, 12, 1.0, 1.5);  // n=144: 3 words
  const auto seed_params = seed::SeedAlgParams::make(0.1, g.delta());
  const Round parked_at = seed_params.total_rounds() + 16;
  const auto run = [&](const char* text, bool mid_run, std::size_t threads,
                       bool sparse) {
    const auto ids = assign_ids(g.size(), 7);
    std::vector<std::unique_ptr<Process>> procs;
    Rng init(99);
    for (graph::Vertex v = 0; v < g.size(); ++v) {
      procs.push_back(
          std::make_unique<seed::SeedProcess>(seed_params, ids[v], init));
    }
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, std::move(procs), 1234);
    obs::Registry registry;
    EngineConfig config;
    config.with_round_threads(threads).with_sparse_rounds(sparse);
    config.with_telemetry(&registry);
    if (!mid_run) config.with_splice(splice(text));
    engine.configure(config);
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(parked_at);
    if (mid_run) {
      EXPECT_EQ(engine.splice_stage(splice(text)), "");
      EXPECT_EQ(engine.sparse_rounds(), sparse);
    }
    engine.run_rounds(12);
    SplicedResult result{stream.events(), {},
                         registry.json(/*include_timing=*/false)};
    for (graph::Vertex v = 0; v < g.size(); ++v) {
      const auto& d =
          dynamic_cast<const seed::SeedProcess&>(engine.process(v)).decision();
      result.state.push_back(d.has_value() ? d->seed_value ^ (d->owner * 3U)
                                           : 0);
    }
    return result;
  };
  for (const char* text : kSplices) {
    for (bool mid_run : {false, true}) {
      for (std::size_t threads : kThreadCounts) {
        const std::string what = std::string(text) +
                                 (mid_run ? " mid-run" : " from round 1") +
                                 " @ " + std::to_string(threads) + " threads";
        expect_same(run(text, mid_run, threads, false),
                    run(text, mid_run, threads, true), what);
      }
    }
  }
}

/// Appends the service outputs LbSimulation hands its extra listener to
/// the observer stream, so one event vector pins their order relative to
/// the engine's observer events.
class OutputRecorder final : public lb::LbListener {
 public:
  explicit OutputRecorder(StreamObserver& stream) : stream_(&stream) {}
  void on_ack(graph::Vertex v, const MessageId& m, Round round) override {
    stream_->append("ack " + std::to_string(round) + ' ' + std::to_string(v) +
                    ' ' + std::to_string(m.origin) + ' ' +
                    std::to_string(m.seq));
  }
  void on_recv(graph::Vertex v, const MessageId& m, std::uint64_t content,
               Round round) override {
    stream_->append("recv " + std::to_string(round) + ' ' +
                    std::to_string(v) + ' ' + std::to_string(m.origin) + ' ' +
                    std::to_string(m.seq) + ' ' + std::to_string(content));
  }

 private:
  StreamObserver* stream_;
};

/// The LB stack over a 10x10 grid with poisson traffic, optionally a fault
/// plan, and the given splices, run for `phases` phases.  The events
/// include the extra listener's recv/ack calls.  `probe` (optional) sees
/// the engine after every round.
SplicedResult run_lb_spliced(const std::vector<std::string>& splices,
                             bool faults, std::size_t threads, bool sparse,
                             const std::function<void(const Engine&)>& probe =
                                 nullptr,
                             std::int64_t phases = 2) {
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  lb::LbScales scales;
  scales.ack_scale = 0.02;
  const auto params =
      lb::LbParams::calibrated(0.1, 1.5, g.delta(), g.delta_prime(), scales);
  traffic::TrafficSpec tspec;
  EXPECT_EQ(traffic::parse_traffic_spec("poisson:0.05", tspec), "");
  fault::FaultSpec fspec;
  EXPECT_EQ(fault::parse_fault_spec("poisson:0.1:96", fspec), "");

  lb::LbSimulation sim(g, std::make_unique<BernoulliScheduler>(0.5), params,
                       /*master_seed=*/2031);
  const auto plan = faults ? fault::build_fault_plan(fspec) : nullptr;
  obs::Registry registry;
  EngineConfig config;
  config.with_round_threads(threads).with_sparse_rounds(sparse);
  if (faults) config.with_fault_plan(plan.get());
  for (const std::string& text : splices) config.with_splice(splice(text));
  config.with_telemetry(&registry);
  sim.configure(config);
  StreamObserver stream;
  sim.add_observer(&stream);
  OutputRecorder outputs(stream);
  sim.set_extra_listener(&outputs);
  sim.add_traffic(traffic::build_source(tspec, g.size(),
                                        derive_seed(2031, 0x7fcULL)));
  const Round rounds = phases * sim.params().phase_length();
  for (Round i = 0; i < rounds; ++i) {
    sim.run_round();
    if (probe) probe(sim.engine());
  }
  sim.export_telemetry();
  SplicedResult result{stream.events(), ledger(sim.traffic().stats()),
                       registry.json(/*include_timing=*/false)};
  const lb::DegradationLedger& led = sim.ledger();
  result.state.insert(result.state.end(),
                      {led.crashes, led.recoveries, led.restab_count,
                       led.restab_rounds_sum, led.fault_rounds,
                       led.acks_in_fault_rounds,
                       registry.counter("stage.dedup.suppressed",
                                        obs::Domain::kLogical)});
  return result;
}

TEST(EngineSparseDifferential, LbStackWithFaultsAndDedup) {
  // LbProcesses park in their receiving-state bodies and after recovery;
  // dedup masks their repeated deliveries, so a parked vertex must take a
  // masked delivery as the null it promised to ignore.
  for (std::size_t threads : kThreadCounts) {
    const SplicedResult oracle =
        run_lb_spliced({"dedup:4"}, /*faults=*/true, threads, false);
    const SplicedResult frontier =
        run_lb_spliced({"dedup:4"}, /*faults=*/true, threads, true);
    EXPECT_GT(oracle.state.back(), 0u) << "dedup never fired; weak fixture";
    EXPECT_GT(oracle.state[13], 0u) << "no crash-requeues; weak fixture";
    expect_same(oracle, frontier,
                "dedup:4 + faults @ " + std::to_string(threads) + " threads");
  }
}

TEST(EngineSparseDifferential, FullMaskOnlyForHeardReaders) {
  // A splice declaring a heard_words read makes every round carry an
  // all-ones activity mask; the others keep the computed frontier, which
  // under this light load leaves most words empty.  The oracle mode is
  // all-ones throughout.
  for (const char* text : kSplices) {
    const bool reads_heard = slab_set_contains(
        splice_reads(splice(text)), Slab::kHeardWords);
    for (bool sparse : {false, true}) {
      std::size_t min_count = std::numeric_limits<std::size_t>::max();
      std::size_t n = 0;
      const SplicedResult result = run_lb_spliced(
          {text}, /*faults=*/false, 1, sparse, [&](const Engine& engine) {
            n = engine.process_count();
            min_count = std::min(min_count, engine.activity_mask().count());
          });
      const bool full = !sparse || reads_heard;
      if (full) {
        EXPECT_EQ(min_count, n) << text << (sparse ? "" : " (oracle)");
      } else {
        EXPECT_LT(min_count, n) << text;
      }
    }
  }
}

TEST(EngineShardProperty, DefaultRoundThreadsAcceptsDigitsOnly) {
  // DG_ROUND_THREADS is "max", a positive decimal integer, or invalid (1).
  // A sign or leading whitespace must not parse: "-1" once wrapped to
  // 2^64-1 threads and killed the process in the block-size arithmetic.
  const char* saved = std::getenv("DG_ROUND_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const auto threads_for = [](const char* value) {
    setenv("DG_ROUND_THREADS", value, /*overwrite=*/1);
    return Engine::default_round_threads();
  };
  EXPECT_EQ(threads_for("-1"), 1u);
  EXPECT_EQ(threads_for("+2"), 1u);
  EXPECT_EQ(threads_for(" 2"), 1u);
  EXPECT_EQ(threads_for("2 "), 1u);
  EXPECT_EQ(threads_for("0"), 1u);
  EXPECT_EQ(threads_for("99999999999999999999999"), 1u);
  // Past the shared ceiling: once saturated by strtoull into a wrapped
  // block-size divisor (SIGFPE), or a pool the host cannot spawn.
  EXPECT_EQ(threads_for("99999999999999999999"), 1u);
  EXPECT_EQ(threads_for("100000"), 1u);
  EXPECT_EQ(threads_for(std::to_string(kMaxRoundThreads + 1).c_str()), 1u);
  EXPECT_EQ(threads_for(std::to_string(kMaxRoundThreads).c_str()),
            kMaxRoundThreads);
  EXPECT_LE(threads_for("max"), kMaxRoundThreads);
  EXPECT_EQ(threads_for("3"), 3u);
  if (saved != nullptr) {
    setenv("DG_ROUND_THREADS", restore.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("DG_ROUND_THREADS");
  }
}

TEST(EngineShardProperty, NonConsentingProcessForcesSerial) {
  // A process that keeps the shard_safe() default must pin the whole
  // engine to the serial loop; results are (trivially) identical, and
  // nothing crashes or deadlocks with the cap still set high.
  class DefaultConsent final : public Process {
   public:
    explicit DefaultConsent(ProcessId id) : Process(id) {}
    std::optional<Packet> transmit(RoundContext& ctx) override {
      if (!ctx.rng().chance(0.5)) return std::nullopt;
      return Packet{id(), DataPayload{MessageId{id(), ++seq_}, 1ULL}};
    }
    void receive(const std::optional<Packet>&, RoundContext&) override {}

   private:
    std::uint32_t seq_ = 0;
  };
  const auto g = graph::grid(10, 10, 1.0, 1.5);
  const auto run = [&](std::size_t threads) {
    const auto ids = assign_ids(g.size(), 11);
    std::vector<std::unique_ptr<Process>> procs;
    for (std::size_t v = 0; v < g.size(); ++v) {
      procs.push_back(std::make_unique<DefaultConsent>(ids[v]));
    }
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, std::move(procs), 99);
    engine.configure(EngineConfig{}.with_round_threads(threads));
    StreamObserver stream;
    engine.add_observer(&stream);
    engine.run_rounds(24);
    return stream.events();
  };
  const auto serial = run(1);
  const auto capped = run(8);
  ASSERT_EQ(serial, capped);
}

// ---- one dispatch: a serial round is the one-block case ----
//
// Every round runs each stage's body first and its observer replay after,
// so the observer-visible contract no longer depends on whether a round
// was sharded.

TEST(EngineDispatchContract, StageObserversFollowEveryProcessCall) {
  // A process without shard consent keeps every round serial at any cap.
  // Its observers must still see the stage's process calls complete: the
  // first transmit event of a round finds every vertex's transmit() done,
  // and the first reception event every listener's receive().
  struct Calls {
    std::uint64_t transmit = 0;
    std::uint64_t receive = 0;
  };
  class CountingProcess final : public Process {
   public:
    CountingProcess(ProcessId id, Calls& calls) : Process(id), calls_(&calls) {}
    std::optional<Packet> transmit(RoundContext& ctx) override {
      ++calls_->transmit;
      if (!ctx.rng().chance(0.3)) return std::nullopt;
      return Packet{id(), DataPayload{MessageId{id(), ++seq_}, 1ULL}};
    }
    void receive(const std::optional<Packet>&, RoundContext&) override {
      ++calls_->receive;
    }

   private:
    Calls* calls_;
    std::uint32_t seq_ = 0;
  };
  class CompletenessObserver final : public Observer {
   public:
    CompletenessObserver(const Calls& calls, std::size_t n)
        : calls_(&calls), n_(n) {}
    unsigned interest() const override {
      return kRoundBegin | kTransmit | kReceive | kSilence;
    }
    void on_round_begin(Round) override {
      tx_before_ = calls_->transmit;
      rx_before_ = calls_->receive;
      transmitters_ = 0;
      first_tx_ = first_rx_ = true;
    }
    void on_transmit(Round round, graph::Vertex, const Packet&) override {
      ++transmitters_;
      if (!std::exchange(first_tx_, false)) return;
      ++checked_tx;
      EXPECT_EQ(calls_->transmit - tx_before_, n_) << "round " << round;
    }
    void on_receive(Round round, graph::Vertex, graph::Vertex,
                    const Packet&) override {
      check_rx(round);
    }
    void on_silence(Round round, graph::Vertex, bool) override {
      check_rx(round);
    }

    std::size_t checked_tx = 0;
    std::size_t checked_rx = 0;

   private:
    void check_rx(Round round) {
      if (!std::exchange(first_rx_, false)) return;
      ++checked_rx;
      EXPECT_EQ(calls_->receive - rx_before_, n_ - transmitters_)
          << "round " << round;
    }

    const Calls* calls_;
    std::size_t n_;
    std::uint64_t tx_before_ = 0;
    std::uint64_t rx_before_ = 0;
    std::size_t transmitters_ = 0;
    bool first_tx_ = true;
    bool first_rx_ = true;
  };

  const auto g = graph::grid(16, 16, 1.0, 1.5);
  const Round rounds = 20;
  for (std::size_t threads : {1, 4}) {
    Calls calls;
    const auto ids = assign_ids(g.size(), 5);
    std::vector<std::unique_ptr<Process>> procs;
    for (std::size_t v = 0; v < g.size(); ++v) {
      procs.push_back(std::make_unique<CountingProcess>(ids[v], calls));
    }
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, std::move(procs), 17);
    engine.configure(EngineConfig{}.with_round_threads(threads));
    CompletenessObserver check(calls, g.size());
    engine.add_observer(&check);
    engine.run_rounds(rounds);
    EXPECT_EQ(check.checked_tx, static_cast<std::size_t>(rounds)) << threads;
    EXPECT_EQ(check.checked_rx, static_cast<std::size_t>(rounds)) << threads;
  }
}

TEST(EngineDispatchContract, CollisionInterestIsTheCollisionSubset) {
  // kCollision delivers exactly the collision == true silences a kSilence
  // observer sees, and kSilence | kCollision gets each silence once.
  // Parked seed processes make most words non-frontier, the part of the
  // network the replay skips for collision-only observers.
  class SilenceLog final : public Observer {
   public:
    explicit SilenceLog(unsigned bits) : bits_(bits) {}
    unsigned interest() const override { return bits_; }
    void on_silence(Round round, graph::Vertex u, bool collision) override {
      events.push_back(std::to_string(round) + ' ' + std::to_string(u) + ' ' +
                       (collision ? "1" : "0"));
    }
    std::vector<std::string> events;

   private:
    unsigned bits_;
  };
  const auto g = graph::grid(12, 12, 1.0, 1.5);
  const auto seed_params = seed::SeedAlgParams::make(0.1, g.delta());
  const auto run = [&](std::size_t threads, bool sparse) {
    const auto ids = assign_ids(g.size(), 7);
    std::vector<std::unique_ptr<Process>> procs;
    Rng init(99);
    for (graph::Vertex v = 0; v < g.size(); ++v) {
      procs.push_back(
          std::make_unique<seed::SeedProcess>(seed_params, ids[v], init));
    }
    BernoulliScheduler sched(0.5);
    Engine engine(g, sched, std::move(procs), 1234);
    engine.configure(EngineConfig{}
                         .with_round_threads(threads)
                         .with_sparse_rounds(sparse));
    SilenceLog silence(Observer::kSilence);
    SilenceLog collision(Observer::kCollision);
    SilenceLog both(Observer::kSilence | Observer::kCollision);
    engine.add_observer(&silence);
    engine.add_observer(&collision);
    engine.add_observer(&both);
    engine.run_rounds(seed_params.total_rounds() + 16);
    std::vector<std::string> subset;
    for (const std::string& e : silence.events) {
      if (e.back() == '1') subset.push_back(e);
    }
    EXPECT_FALSE(subset.empty()) << "no collisions; weak fixture";
    EXPECT_EQ(collision.events, subset) << threads << " threads";
    EXPECT_EQ(both.events, silence.events) << threads << " threads";
    return collision.events;
  };
  const auto serial = run(1, true);
  EXPECT_EQ(run(4, true), serial) << "sharded";
  EXPECT_EQ(run(1, false), serial) << "oracle";
  EXPECT_EQ(run(4, false), serial) << "sharded oracle";
}

TEST(EngineDispatchContract, LbExtraListenerSequence) {
  // LbSimulation's extra listener sees a round's recvs after its receive
  // phase (after every reception observer event) and its acks after the
  // output phase, each in ascending vertex order -- the same sequence at
  // every thread count and in the oracle mode.
  const auto rank = [](const std::string& kind) {
    if (kind == "begin") return 0;
    if (kind == "tx") return 1;
    if (kind == "rx" || kind == "sil") return 2;
    if (kind == "recv") return 3;
    if (kind == "ack") return 4;
    return 5;  // end
  };
  const SplicedResult serial =
      run_lb_spliced({}, /*faults=*/true, 1, true, nullptr, /*phases=*/8);
  std::size_t recvs = 0, acks = 0;
  int last_rank = 5;
  long last_vertex = -1;
  for (const std::string& line : serial.events) {
    std::istringstream in(line);
    std::string kind;
    Round round = 0;
    long vertex = -1;
    in >> kind >> round >> vertex;
    const int r = rank(kind);
    if (r == 0) {
      ASSERT_EQ(last_rank, 5) << line;
    } else {
      ASSERT_GE(r, last_rank) << line;
    }
    if (r == last_rank && r != 0 && r != 5) {
      ASSERT_GT(vertex, last_vertex) << line;
    }
    recvs += kind == "recv";
    acks += kind == "ack";
    last_rank = r;
    last_vertex = vertex;
  }
  EXPECT_GT(recvs, 0u) << "no recvs; weak fixture";
  EXPECT_GT(acks, 0u) << "no acks; weak fixture";
  expect_same(serial,
              run_lb_spliced({}, /*faults=*/true, 4, true, nullptr, 8),
              "4 threads");
  expect_same(serial,
              run_lb_spliced({}, /*faults=*/true, 1, false, nullptr, 8),
              "oracle");
}

}  // namespace
}  // namespace dg::sim
