// dglab -- command-line laboratory for the dual-graph local broadcast stack.
//
//   dglab net   [topology flags]                  describe a network
//   dglab seed  [topology flags] [--eps=0.1]      run seed agreement + spec
//   dglab run   [topology flags] [run flags]      run LBAlg + spec report
//   dglab sweep [--deltas=4,8,16,32] [run flags]  progress/delivery sweep
//
// Topology flags:
//   --type=geometric|grid|clique|star|line|bridged|contention_star
//          |disjoint_cliques   (default geometric; every family
//          scn::build_topology builds)
//   --n=64 --side=4.0 --r=1.5          (geometric; --r >= 1.2 for bridged)
//   --cols=6 --rows=4 --spacing=1.0    (grid; --spacing also line)
//   --k=16   (clique size / star leaves / line length / bridged cluster
//            size / contention_star unreliable neighbors /
//            disjoint_cliques clique size, two cliques)
// Run flags:
//   --eps=0.1 --seed=1 --phases=30 --senders=2 --ack-scale=0.02
//   --sched=bernoulli:0.5 | full-g | full-gprime | flicker:64:32
//           | burst:16:0.5 | anti
//   --channel=dual | sinr:alpha,beta,noise   (reception physics; sinr needs
//           an embedded topology and makes --sched irrelevant)
//   --traffic=saturate[:count] | poisson:rate | burst:period:size[:count]
//           | hotspot:rate:bias[:hot]   (environment traffic model; replaces
//           the --senders keep-busy default and prints queue/latency stats)
//   --traffic-cap=N  (per-node admission queue bound; 0 = unbounded)
//   --faults=crash:round:vertex[:repair] | poisson:rate[:mean_repair]
//           | region:round:center:radius[:repair] | adversary:k[:period[:repair]]
//           (crash/recover schedule; prints the graceful-degradation
//           ledger -- fault-window progress violations, re-stabilization
//           time, throughput dip -- next to the clean-window spec report)
//   --round-threads=N  (sharded-round worker cap, N >= 1; omit to use the
//           DG_ROUND_THREADS default.  Results are byte-identical at every
//           value -- the flag moves wall clock, never outcomes)
//   --splice=SPEC  (splice an extra stage into the engine's round
//           pipeline: noop | dedup[:window[:slab]] | tap:slab[:v1,...];
//           see sim/splice.h for the grammar.  Applies to run, sweep and
//           seed; a dedup stage suppresses recently-heard packets, a tap
//           stage counts slab population per round into the telemetry)
//   --reuse=1 (phases per seed)  --ablate (private coins)  --trace=N
// Telemetry flags (run only):
//   --metrics-out=FILE  write the obs::Registry dump (dg-metrics-v1 JSON;
//           the "logical" domain is byte-identical at every
//           --round-threads value, "timing" is wall clock)
//   --trace-out=FILE    write a Chrome trace-event JSON (open in Perfetto
//           or chrome://tracing): per-round engine phase slices, message
//           lifecycle spans (enqueue->admit->first-recv->ack/abort),
//           crash/recover instants, and the TraceRecorder tail
//   --trace-rounds=LO:HI  clamp trace events to a round window
//   --trace-vertices=v1,v2,...  keep only these vertices' message spans
//           and fault instants (engine phase slices always pass)
//
// --topology=family:args is a compact alias for the topology flags:
//   grid:32x32 | geometric:256 | clique:16 | star:16 | line:16
//
// One builder path: the flags compile to one scn::ScenarioSpec, and the
// network, channel, engine and simulation come from the src/scn/ builders
// the campaign workloads use; dglab itself only parses and prints.
//
// Unknown --flags are rejected (a typo like --schd= must not silently run
// the default configuration), and so are malformed numeric values: a value
// that is not a plain number, or lies outside its flag's domain (kDomains:
// e.g. --eps in (0, 0.5], --r >= 1, --reuse >= 1), exits 2 naming the
// flag.  Spec grammars, flag combinations and vertex bounds are checked
// the same way, before anything is built.  When the first argument is a
// --flag the `run` subcommand is implied:
// `dglab --topology=grid:8x8 --phases=10`.
//
// Examples:
//   dglab run --type=geometric --n=48 --sched=bernoulli:0.5 --phases=40
//   dglab run --type=contention_star --k=8 --phases=4
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/spec.h"
#include "graph/generators.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "phys/channel_spec.h"
#include "scn/scenario.h"
#include "scn/workload.h"
#include "seed/seed_alg.h"
#include "seed/spec.h"
#include "sim/engine.h"
#include "sim/splice.h"
#include "sim/trace.h"
#include "traffic/source.h"
#include "traffic/spec.h"
#include "util/specparse.h"
#include "util/table.h"

namespace {

using namespace dg;

// ---- tiny flag parser: --key=value ----

/// Every flag any subcommand understands; parsing rejects the rest.
constexpr const char* kValidFlags[] = {
    "type", "n", "side", "r", "cols", "rows", "spacing", "k",   // topology
    "topology",                                                 // alias
    "eps", "seed", "phases", "senders", "ack-scale",            // run
    "sched", "channel", "reuse", "ablate", "trace", "deltas",   // run/sweep
    "traffic", "traffic-cap", "round-threads", "faults",        // environment
    "splice",                                                   // pipeline
    "metrics-out", "trace-out", "trace-rounds", "trace-vertices",  // obs
};

/// Domain of a numeric flag: [lo, hi], or (lo, hi] when lo_open.  Numeric
/// flags without an entry take any value >= 0.
struct Domain {
  const char* flag;
  double lo;
  double hi;
  bool lo_open = false;
};
constexpr double kInf = std::numeric_limits<double>::infinity();
/// The preconditions the builders would otherwise enforce by aborting; the
/// reuse and phases ceilings keep reuse * T_prog and phases * phase length
/// inside the round arithmetic's integer range.
constexpr Domain kDomains[] = {
    {"n", 1, kInf},          {"cols", 1, kInf},
    {"rows", 1, kInf},       {"k", 1, kInf},
    {"side", 0, kInf, true}, {"spacing", 0, kInf, true},
    {"r", 1, kInf},          {"eps", 0, 0.5, true},
    {"ack-scale", 0, kInf, true},
    {"reuse", 1, 65536},     {"phases", 0, 2147483647},
};

using spec::parse_uint;
using spec::split;

class Flags {
 public:
// GCC 12's -Wrestrict misfires on the std::string assignments below once
// they inline into main (upstream PR105329 family); the code is plain
// map-of-string bookkeeping.  Clang has no -Wrestrict group, so the
// pragma is GCC-only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        unknown_.push_back(arg);
        continue;
      }
      const auto eq = arg.find('=');
      const std::string key =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      if (std::find_if(std::begin(kValidFlags), std::end(kValidFlags),
                       [&](const char* f) { return key == f; }) ==
          std::end(kValidFlags)) {
        unknown_.push_back(arg);
        continue;
      }
      if (eq == std::string::npos) {
        values_[key] = "1";
      } else {
        values_[key] = arg.substr(eq + 1);
      }
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  /// Arguments that matched no known flag (typos like --schd=).
  const std::vector<std::string>& unknown() const noexcept { return unknown_; }

  std::string str(const std::string& key, const std::string& dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  /// Numeric flags: a present value must be a whole finite number
  /// (num) or digits only (uint), inside the flag's kDomains entry;
  /// anything else exits 2 naming the flag, instead of running a default
  /// or aborting on a precondition later.
  double num(const std::string& key, double dflt) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    double v = 0;
    if (!spec::parse_num(it->second, v) || !in_domain(key, v)) {
      reject(key, it->second, "a number");
    }
    return v;
  }
  std::uint64_t uint(const std::string& key, std::uint64_t dflt) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    std::uint64_t v = 0;
    if (!parse_uint(it->second, v) ||
        !in_domain(key, static_cast<double>(v))) {
      reject(key, it->second, "an integer");
    }
    return v;
  }
  bool flag(const std::string& key) const { return values_.contains(key); }

 private:
  static const Domain* domain(const std::string& key) {
    for (const Domain& d : kDomains) {
      if (key == d.flag) return &d;
    }
    return nullptr;
  }
  static bool in_domain(const std::string& key, double v) {
    const Domain* d = domain(key);
    if (d == nullptr) return v >= 0;
    return (d->lo_open ? v > d->lo : v >= d->lo) && v <= d->hi;
  }
  [[noreturn]] static void reject(const std::string& key,
                                  const std::string& value,
                                  const char* kind) {
    std::cerr << "dglab: --" << key << " needs " << kind;
    if (const Domain* d = domain(key)) {
      std::cerr << std::setprecision(10) << " in " << (d->lo_open ? "(" : "[")
                << d->lo << ", " << d->hi << (d->hi == kInf ? ")" : "]");
    } else {
      std::cerr << " >= 0";
    }
    std::cerr << "; got '" << value << "'\n";
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> unknown_;
};

/// Exits 2 with "dglab: <message>" (bad input never reaches a builder's
/// contract abort).
[[noreturn]] void fail(const std::string& message) {
  std::cerr << "dglab: " << message << "\n";
  std::exit(2);
}

/// Exits 2 with "dglab: --<flag>: <message>".
[[noreturn]] void reject(const std::string& flag, const std::string& message) {
  fail("--" + flag + ": " + message);
}

/// Rejects `flag` with a spec grammar's error message, if it has one.
void check(const char* flag, const std::string& error) {
  if (!error.empty()) reject(flag, error);
}

// ---- flags -> ScenarioSpec ----

/// Expands the --topology=family:args alias (grid:32x32, geometric:256,
/// clique:16, star:16, line:16) into the family and its size; geometry
/// knobs (--side, --spacing, --r) still apply.
void compile_alias(const std::string& text, scn::TopologySpec& t) {
  const auto colon = text.find(':');
  t.type = text.substr(0, colon);
  const std::string args =
      colon == std::string::npos ? "" : text.substr(colon + 1);
  bool ok = false;
  if (t.type == "grid") {
    const auto x = args.find('x');
    ok = x != std::string::npos && parse_uint(args.substr(0, x), t.cols) &&
         parse_uint(args.substr(x + 1), t.rows) && t.cols != 0 && t.rows != 0;
  } else if (t.type == "geometric") {
    ok = parse_uint(args, t.n) && t.n != 0;
  } else if (t.type == "clique" || t.type == "star" || t.type == "line") {
    ok = parse_uint(args, t.k) && t.k != 0;
  }
  if (!ok) {
    reject("topology", "malformed spec '" + text +
                           "' (valid: grid:COLSxROWS, geometric:N, clique:K, "
                           "star:K, line:K)");
  }
}

/// Compiles the flags into the one scn::ScenarioSpec every subcommand
/// builds from.  Every grammar, domain and vertex bound is checked here,
/// so bad input exits 2 naming its flag before any setup runs.
scn::ScenarioSpec compile_spec(const Flags& flags) {
  scn::ScenarioSpec spec;
  scn::TopologySpec& t = spec.topology;
  t.n = static_cast<std::size_t>(flags.uint("n", t.n));
  t.side = flags.num("side", t.side);
  t.r = flags.num("r", t.r);
  t.cols = static_cast<std::size_t>(flags.uint("cols", t.cols));
  t.rows = static_cast<std::size_t>(flags.uint("rows", t.rows));
  t.spacing = flags.num("spacing", t.spacing);
  t.k = static_cast<std::size_t>(flags.uint("k", t.k));
  if (flags.flag("topology")) {
    if (flags.flag("type")) {
      fail("--topology and --type are mutually exclusive (the alias "
           "already names the family)");
    }
    compile_alias(flags.str("topology", ""), t);
  } else {
    t.type = flags.str("type", t.type);
    // --type takes every family scn::build_topology builds; a typo like
    // --type=cliqe must not silently run the default family.
    const scn::TopologyFamily* family = scn::find_topology_family(t.type);
    if (family == nullptr || !family->builds_graph) {
      fail("unknown --type '" + t.type + "' (valid: " +
           scn::topology_family_list(&scn::TopologyFamily::builds_graph) +
           ")");
    }
  }
  // kDomains already holds side, spacing and r >= 1; what is left is
  // bridged's r >= 1.2.
  check("r", scn::validate_topology(t));
  spec.seed = flags.uint("seed", spec.seed);
  spec.scheduler = flags.str("sched", spec.scheduler);
  check("sched", scn::validate_scheduler_spec(spec.scheduler));
  spec.channel = flags.str("channel", spec.channel);
  check("channel", phys::parse_channel_spec(spec.channel, spec.channel_spec));
  if (spec.channel_spec.is_sinr && !scn::topology_has_embedding(t.type)) {
    fail("--channel=sinr needs an embedded topology (" +
         scn::topology_family_list(&scn::TopologyFamily::embedded) +
         "); got '" + t.type + "'");
  }
  spec.traffic = flags.str("traffic", "");
  if (!spec.traffic.empty()) {
    if (flags.flag("senders")) {
      fail("--senders and --traffic are mutually exclusive (use "
           "--traffic=saturate:count for spread senders)");
    }
    check("traffic",
          traffic::parse_traffic_spec(spec.traffic, spec.traffic_spec));
  } else if (flags.flag("traffic-cap")) {
    fail("--traffic-cap needs --traffic= (the keep-busy default has no "
         "admission queue)");
  }
  spec.faults = flags.str("faults", "");
  if (!spec.faults.empty()) {
    check("faults", fault::parse_fault_spec(spec.faults, spec.fault_spec));
  }
  if (flags.flag("splice")) {
    sim::SpliceSpec splice;
    std::string err;
    if (!sim::parse_splice_spec(flags.str("splice", ""), splice, err)) {
      reject("splice", err);
    }
    spec.stages = {flags.str("splice", "")};
  }
  if (flags.flag("round-threads")) {
    // The shared scn validator: dglab and dgcampaign reject identically.
    const std::string err = scn::validate_round_threads_value(
        flags.str("round-threads", ""), spec.round_threads);
    if (!err.empty()) fail("--" + err);
  }
  spec.algorithm.eps1 = flags.num("eps", spec.algorithm.eps1);
  spec.algorithm.seed_eps = std::min(0.25, spec.algorithm.eps1);
  spec.algorithm.ack_scale = flags.num("ack-scale", spec.algorithm.ack_scale);
  if (const scn::SpecViolation v = scn::check_vertex_bounds(spec); !v.ok()) {
    reject(v.key, v.message);
  }
  return spec;
}

/// Parses --trace-rounds=LO:HI / --trace-vertices=v1,v2,... into a sink
/// filter, exiting with a message on malformed values.
obs::TraceSink::Filter trace_filter_flags(const Flags& flags) {
  obs::TraceSink::Filter f;
  if (flags.flag("trace-rounds")) {
    const std::string s = flags.str("trace-rounds", "");
    const auto colon = s.find(':');
    std::uint64_t lo = 0, hi = 0;
    if (colon == std::string::npos || !parse_uint(s.substr(0, colon), lo) ||
        !parse_uint(s.substr(colon + 1), hi) || lo > hi) {
      fail("--trace-rounds needs LO:HI with LO <= HI; got '" + s + "'");
    }
    f.round_lo = static_cast<std::int64_t>(lo);
    f.round_hi = static_cast<std::int64_t>(hi);
  }
  if (flags.flag("trace-vertices")) {
    for (const std::string& v : split(flags.str("trace-vertices", ""), ',')) {
      if (!parse_uint(v, f.vertices.emplace_back())) {
        fail("--trace-vertices needs a comma-separated vertex list; got '" +
             v + "'");
      }
    }
  }
  return f;
}

/// Writes `content` to the file `flag` names and returns the path,
/// exiting 2 when the file cannot be written.
std::string write_output(const Flags& flags, const char* flag,
                         const std::string& content) {
  const std::string path = flags.str(flag, "");
  std::ofstream os(path);
  if (!(os << content)) reject(flag, "cannot write '" + path + "'");
  return path;
}

/// The spec's network, from the trial's master stream.
graph::DualGraph build_network(const scn::ScenarioSpec& spec) {
  Rng rng(spec.seed);
  return scn::build_topology(spec.topology, rng);
}

void describe(const graph::DualGraph& g) {
  std::cout << "network: n=" << g.size() << " Delta=" << g.delta()
            << " Delta'=" << g.delta_prime()
            << " unreliable-edges=" << g.unreliable_edge_count() << "\n";
  if (g.embedding().has_value()) {
    std::cout << "embedding: r-geographic(r=" << g.r() << ") -> "
              << (graph::is_r_geographic(g, *g.embedding(), g.r())
                      ? "valid"
                      : "INVALID")
              << "\n";
  }
}

// ---- subcommands ----

int cmd_net(const scn::ScenarioSpec& spec) {
  const auto g = build_network(spec);
  describe(g);
  // Degree histogram.
  std::map<std::size_t, std::size_t> hist;
  for (graph::Vertex v = 0; v < g.size(); ++v) {
    ++hist[g.g_neighbors(v).size()];
  }
  Table table({"G-degree", "vertices"});
  for (const auto& [deg, count] : hist) {
    table.row().cell(static_cast<std::uint64_t>(deg)).cell(
        static_cast<std::uint64_t>(count));
  }
  table.print(std::cout);
  return 0;
}

int cmd_seed(const scn::ScenarioSpec& spec) {
  const auto g = build_network(spec);
  describe(g);
  const auto params =
      seed::SeedAlgParams::make(spec.algorithm.seed_eps, g.delta());
  std::cout << "SeedAlg(eps=" << spec.algorithm.seed_eps << "): " << params.num_phases
            << " phases x " << params.phase_length << " rounds = "
            << params.total_rounds() << " rounds\n";
  const scn::SeedCheck check = scn::run_seed_check(spec, g, spec.seed);
  const seed::SeedSpecResult& res = check.result;
  std::cout << "channel: " << check.channel << "\n"
            << "spec: well-formed=" << (res.well_formed ? "OK" : "FAIL")
            << " consistent=" << (res.consistent ? "OK" : "FAIL")
            << " owners-local=" << (res.owners_local ? "OK" : "FAIL") << "\n"
            << "distinct owners: " << res.distinct_owners
            << "; max owners per closed G'-neighborhood: "
            << res.max_neighborhood_owners << "\n";
  return res.well_formed && res.consistent ? 0 : 1;
}

int cmd_run(const Flags& flags, const scn::ScenarioSpec& spec) {
  const bool want_metrics = flags.flag("metrics-out");
  const bool want_trace = flags.flag("trace-out");
  obs::Registry registry;  // backs --trace-out's profiler even without
                           // --metrics-out; only written when asked for
  const auto sink = want_trace ? std::make_unique<obs::TraceSink>(
                                     trace_filter_flags(flags))
                               : nullptr;

  const auto g = build_network(spec);
  describe(g);
  auto params = scn::lb_params_for(spec.algorithm, g);
  params.phases_per_seed = static_cast<int>(flags.uint("reuse", 1));
  params.use_shared_seeds = !flags.flag("ablate");
  std::cout << "LBAlg: T_s=" << params.t_s << " T_prog=" << params.t_prog
            << " phase=" << params.phase_length()
            << " group=" << params.group_length()
            << " T_ack=" << params.t_ack_phases << " phases"
            << (params.use_shared_seeds ? "" : "  [ABLATED]") << "\n";

  const auto sim_ptr = scn::build_lb_simulation(spec, g, params, spec.seed);
  lb::LbSimulation& sim = *sim_ptr;
  std::cout << "channel: " << sim.engine().channel().name() << "\n";

  sim::TraceRecorder trace(static_cast<std::size_t>(
      std::max<std::uint64_t>(1, flags.uint("trace", 16))));
  if (want_trace) {
    // Richer recorder tail for the exported track (set before
    // registration: observer interest is sampled at add_observer).
    trace.enable_round_markers(true);
    trace.enable_fault_events(true);
  }
  sim.add_observer(&trace);
  if (want_metrics || want_trace) {
    sim.configure(sim::EngineConfig{}.with_telemetry(&registry, sink.get()));
  }

  if (!spec.traffic.empty()) {
    sim.traffic().set_queue_capacity(
        static_cast<std::size_t>(flags.uint("traffic-cap", 0)));
    sim.add_traffic(traffic::build_source(spec.traffic_spec, g.size(),
                                          derive_seed(spec.seed, 0x7fcULL)));
    std::cout << "traffic: " << spec.traffic << "\n";
  } else {
    const auto senders =
        std::min<std::uint64_t>(flags.uint("senders", 2), g.size());
    if (senders >= 1) {
      sim.keep_busy(traffic::spread_vertices(
          static_cast<std::size_t>(senders), g.size()));
    }
  }
  std::unique_ptr<fault::FaultPlan> plan;  // must outlive the run
  if (!spec.faults.empty()) {
    plan = fault::build_fault_plan(spec.fault_spec);
    sim.configure(sim::EngineConfig{}.with_fault_plan(plan.get()));
    std::cout << "faults: " << spec.faults << " (" << plan->name()
              << " plan)\n";
  }
  sim.run_phases(static_cast<std::int64_t>(flags.uint("phases", 30)));
  if (want_metrics || want_trace) sim.export_telemetry();

  const auto& r = sim.report();
  std::cout << "\nafter " << sim.round() << " rounds:\n"
            << "  timely-ack=" << (r.timely_ack_ok ? "OK" : "VIOLATED")
            << " validity=" << (r.validity_ok ? "OK" : "VIOLATED")
            << " violations=" << r.violations << "\n"
            << "  bcast/ack/recv: " << r.bcast_count << "/" << r.ack_count
            << "/" << r.recv_count << " (raw receptions "
            << r.raw_receptions << ")\n"
            << "  reliability: " << r.reliability.successes() << "/"
            << r.reliability.trials() << "   progress: "
            << r.progress.successes() << "/" << r.progress.trials() << "\n";
  if (!spec.traffic.empty()) {
    const traffic::TrafficStats& ts = sim.traffic().stats();
    // --phases=0 runs no rounds; report 0 rates instead of dividing by 0.
    const double rounds = std::max(1.0, static_cast<double>(sim.round()));
    std::cout << "  traffic: offered/admitted/acked/dropped: " << ts.offered
              << "/" << ts.admitted << "/" << ts.acked << "/" << ts.dropped
              << "  (offered " << ts.offered / rounds << "/round, delivered "
              << ts.acked / rounds << "/round)\n"
              << "  latency (rounds): wait " << ts.mean_wait() << "  ack "
              << ts.mean_ack_latency() << "  first-recv "
              << ts.mean_recv_latency() << "\n"
              << "  queued: network backlog mean " << ts.mean_backlog()
              << "  per-node depth max " << ts.depth_max << "\n";
    if (ts.crash_requeues != 0 || ts.readmitted != 0) {
      std::cout << "  crash re-queues: " << ts.crash_requeues
                << "  re-admitted after recovery: " << ts.readmitted << "\n";
    }
  }
  if (!spec.faults.empty()) {
    // The graceful-degradation ledger: spec tallies above cover only
    // fault-free windows; everything a fault touched degrades into here.
    const lb::DegradationLedger& led = sim.ledger();
    std::cout << "  degradation: crashes/recoveries " << led.crashes << "/"
              << led.recoveries << "  fault rounds " << led.fault_rounds
              << "/" << led.rounds_observed << "\n"
              << "  fault-window progress: "
              << led.faulty_progress.successes() << "/"
              << led.faulty_progress.trials() << " (violation rate "
              << led.progress_violation_rate() << ")\n"
              << "  fault-window reliability: "
              << led.faulty_reliability.successes() << "/"
              << led.faulty_reliability.trials() << "\n"
              << "  re-stabilization: mean "
              << led.mean_restabilization_rounds() << " rounds over "
              << led.restab_count << " recoveries"
              << "  fault-window ack rate "
              << led.fault_window_ack_rate() << "/round\n";
  }
  if (flags.flag("trace")) {
    std::cout << "\ntrace tail:\n";
    trace.print(std::cout);
  }
  if (want_metrics) {
    const std::string path =
        write_output(flags, "metrics-out", registry.json());
    std::cout << "metrics: " << registry.size() << " series -> " << path
              << "\n";
  }
  if (want_trace) {
    obs::export_recorder(trace, *sink);
    const std::string path = write_output(flags, "trace-out", sink->json());
    std::cout << "trace: " << sink->event_count() << " events -> " << path
              << "\n";
  }
  return r.timely_ack_ok && r.validity_ok ? 0 : 1;
}

int cmd_sweep(const Flags& flags, scn::ScenarioSpec spec) {
  Table table({"Delta", "phase", "progress mean (rounds)",
               "reliability", "progress freq"});
  const std::string deltas = flags.str("deltas", "4,8,16,32");
  std::vector<std::size_t> cliques;
  for (const std::string& ds : split(deltas, ',')) {
    // A clique of one has Delta = 0, which no LBAlg calibration admits.
    std::uint64_t clique = 0;
    if (!parse_uint(ds, clique) || clique < 2) {
      fail("--deltas needs comma-separated clique sizes >= 2; got '" +
           deltas + "'");
    }
    cliques.push_back(static_cast<std::size_t>(clique));
  }
  // The sweep calibrates at r = 1.5 whatever the graph: the auto r of a
  // clique would be 1.0.
  spec.algorithm.r = 1.5;
  for (const std::size_t clique : cliques) {
    const auto g = graph::clique_cluster(clique);
    const auto params = scn::lb_params_for(spec.algorithm, g);
    const auto sim = scn::build_lb_simulation(spec, g, params, spec.seed);
    sim->keep_busy({0});
    sim->run_phases(static_cast<std::int64_t>(flags.uint("phases", 20)));
    const auto& r = sim->report();
    // Mean first-reception latency across completed broadcasts.
    double total = 0;
    std::size_t count = 0;
    for (const auto& rec : sim->checker().broadcasts()) {
      for (const auto& [v, round] : rec.recv_rounds) {
        total += static_cast<double>(round - rec.input_round);
        ++count;
      }
    }
    table.row()
        .cell(static_cast<std::uint64_t>(clique))
        .cell(params.phase_length())
        .cell(count ? total / static_cast<double>(count) : 0.0, 1)
        .cell(std::to_string(r.reliability.successes()) + "/" +
              std::to_string(r.reliability.trials()))
        .cell(r.progress.trials() ? r.progress.frequency() : 1.0, 3);
  }
  table.print(std::cout);
  return 0;
}

void usage() {
  std::cout << "usage: dglab <net|seed|run|sweep> [--flags]\n"
               "       dglab --flags...   (implies 'run')\n"
               "  --topology=grid:32x32 | geometric:256 | clique:16 | "
               "star:16 | line:16\n"
               "  --metrics-out=FILE --trace-out=FILE  telemetry dumps "
               "(trace-event JSON loads in Perfetto)\n"
               "  --trace-rounds=LO:HI --trace-vertices=v1,v2  trace filters\n"
               "  --channel=dual | sinr:alpha,beta,noise  reception physics\n"
               "  --splice=noop | dedup[:window[:slab]] | tap:slab[:v1,...]"
               "  extra pipeline stage\n"
               "  --traffic=saturate[:count] | poisson:rate | "
               "burst:period:size[:count] | hotspot:rate:bias[:hot]\n"
               "  --faults=crash:round:vertex[:repair] | "
               "poisson:rate[:mean_repair] | "
               "region:round:center:radius[:repair] | "
               "adversary:k[:period[:repair]]\n"
               "see the header of tools/dglab.cpp for the full flag list\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  // A leading --flag implies `run`, so the flag-only invocation
  // `dglab --topology=grid:32x32 --metrics-out=m.json` works as-is.
  std::string cmd = argv[1];
  int first = 2;
  if (cmd.rfind("--", 0) == 0) {
    cmd = "run";
    first = 1;
  }
  const Flags flags(argc, argv, first);
  if (!flags.unknown().empty()) {
    for (const std::string& arg : flags.unknown()) {
      std::cerr << "dglab: unknown flag '" << arg << "'\n";
    }
    std::cerr << "valid flags:";
    for (const char* f : kValidFlags) std::cerr << " --" << f;
    std::cerr << "\n";
    return 2;
  }
  // Traffic flags only apply to `run`; the other subcommands drive their
  // own environments, and silently ignoring the flags there would break
  // the no-silent-ignore policy the run command enforces.
  if (cmd != "run" &&
      (flags.flag("traffic") || flags.flag("traffic-cap") ||
       flags.flag("faults"))) {
    fail("--traffic/--traffic-cap/--faults only apply to the 'run' "
         "subcommand");
  }
  if (cmd == "net" && flags.flag("splice")) {
    fail("--splice only applies to the run/sweep/seed subcommands (net "
         "builds no engine)");
  }
  if (cmd != "run" &&
      (flags.flag("metrics-out") || flags.flag("trace-out") ||
       flags.flag("trace-rounds") || flags.flag("trace-vertices"))) {
    fail("the telemetry flags (--metrics-out/--trace-out/--trace-rounds/"
         "--trace-vertices) only apply to the 'run' subcommand");
  }
  if (!flags.flag("trace-out") &&
      (flags.flag("trace-rounds") || flags.flag("trace-vertices"))) {
    fail("--trace-rounds/--trace-vertices need --trace-out=");
  }
  const scn::ScenarioSpec spec = compile_spec(flags);
  if (cmd == "net") return cmd_net(spec);
  if (cmd == "seed") return cmd_seed(spec);
  if (cmd == "run") return cmd_run(flags, spec);
  if (cmd == "sweep") return cmd_sweep(flags, spec);
  usage();
  return 2;
}
