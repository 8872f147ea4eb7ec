// perfbench_driver -- the measuring half of the repository benchmark.
//
//   perfbench_driver --workload W --seed S --seconds T --trace 0|1
//                    --campaigns DIR --artifacts DIR --out FILE
//                    [--scale full|tiny]
//   perfbench_driver --build-info
//
// Runs one workload (dglab_grid_poisson, grid_saturate or paper_campaigns)
// through the same public `dg` calls that dglab and dgcampaign make,
// repeats it for T seconds, and writes one JSON document
// of raw observations to FILE: per-iteration timings, the logical outputs
// the checks compare, and -- for traced iterations -- the span tree around
// every call into the library plus the engine profiler's registry dump.
// perfbench/run.py turns that document into the benchmark's metrics.
//
// Iteration schedule (iteration 0 is a warm-up that no metric times; T is
// traced, U untraced):
//   grid, --trace 0:  T U U U ...    the traced warm-up supplies the
//                                    logical registry the checks compare
//   grid, --trace 1:  U T U T U ...  per-layer numbers from the T, tracing
//                                    overhead from T against U
//   paper_campaigns:  T0 U0 T1 U1 ...  input k shifts every campaign seed,
//                                    because the work of one campaign set
//                                    varies with its seeds (e14's SINR
//                                    trials most); Tk counts the
//                                    vertex-rounds that Uk is timed on,
//                                    and the T are the per-layer samples
// so every input a run executes is executed both traced and untraced, and
// the checks require the two logical outputs to be equal.
//
// Spans are recorded only around calls from this file into the library;
// nothing inside src/ is instrumented beyond the existing engine profiler,
// which a traced iteration reads through sim::EngineConfig::with_telemetry.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "lb/params.h"
#include "lb/simulation.h"
#include "obs/registry.h"
#include "scn/campaign.h"
#include "scn/json.h"
#include "scn/scenario.h"
#include "sim/engine.h"
#include "sim/engine_config.h"
#include "sim/trace.h"
#include "traffic/source.h"
#include "traffic/spec.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace {

using namespace dg;
using Clock = std::chrono::steady_clock;

// ---- build provenance ----

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string build_info_json() {
  std::ostringstream os;
  os << "{\"build_type\": \"" << scn::json::escape(PERFBENCH_BUILD_TYPE)
     << "\", \"compiler\": \"" << scn::json::escape(PERFBENCH_COMPILER)
     << "\", \"optimized\": " << (optimized_build() ? "true" : "false")
     << ", \"sanitized\": " << (sanitized_build() ? "true" : "false")
     << ", \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// ---- spans ----

/// In-memory span recorder for one iteration.  Names are string literals
/// or entries of kCampaigns, so recording never allocates a name.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point begin;
    Clock::time_point end;
  };

  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 14);
  }

  bool on() const noexcept { return on_; }

  int open(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, parent(), Clock::now(), {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = Clock::now();
    stack_.pop_back();
  }

  /// A closed leaf span under the innermost open span.
  void leaf(const char* name, Clock::time_point begin, Clock::time_point end) {
    if (on_) spans_.push_back({name, parent(), begin, end});
  }

  /// [[name, parent, start_s, end_s], ...] relative to `epoch`.
  std::string json(Clock::time_point epoch) const {
    std::ostringstream os;
    os.precision(9);
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n    " : "") << "[\"" << s.name << "\", " << s.parent
         << ", " << std::chrono::duration<double>(s.begin - epoch).count()
         << ", " << std::chrono::duration<double>(s.end - epoch).count()
         << "]";
    }
    os << "]";
    return os.str();
  }

 private:
  int parent() const { return stack_.empty() ? -1 : stack_.back(); }

  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- one iteration's observations ----

struct Iteration {
  bool traced = false;
  std::uint64_t input = 0;  ///< campaign input index (grid: always 0)
  double setup_s = 0;  ///< start of the unit -> first round / campaign run
  double run_s = 0;    ///< round loop (grid) or run_campaign calls
  double wall_s = 0;   ///< the whole unit, artifacts and teardown included
  double cpu_s = 0;    ///< process CPU time over the iteration (diagnostic:
                       ///< a host that steals CPU stretches wall_s only)
  double vertex_rounds = 0;  ///< n x rounds (campaigns: traced iterations)
  double trials = 0;
  double construct_rss_mb = 0;  ///< ru_maxrss growth across construction
  std::string logical;   ///< JSON object: outputs the checks compare
  std::string profile;   ///< JSON: registry dump(s), traced iterations only
  std::string spans;     ///< JSON: span list, traced iterations only
};

// Every workload runs single-threaded: one trial worker, one round thread.
// On a shared multi-core host whose other tenants take CPU time away, a
// second thread waits at every barrier or trial boundary for the one that
// lost its core, and the run-to-run spread of wall time roughly doubled or
// tripled with two threads while the process CPU time stayed steady.
constexpr std::size_t kRoundThreads = 1;

// ---- grid workloads (the dglab run path and the traffic_latency body) ----

struct GridShape {
  std::size_t cols = 0;
  std::size_t rows = 0;
  bool validate = false;   ///< dglab describe(): graph::is_r_geographic
  bool recorder = false;   ///< dglab's always-attached TraceRecorder tail
  const char* traffic = "";
  std::uint64_t traffic_stream = 0;  ///< derive_seed stream of the source
  double ack_scale = 0.02;
  std::int64_t phases = 1;
};

GridShape grid_shape(const std::string& workload, bool tiny) {
  GridShape s;
  if (workload == "dglab_grid_poisson") {
    // dglab run --topology=grid:CxR --traffic=poisson:0.5 --round-threads=1
    s.cols = s.rows = tiny ? 16 : 128;
    s.validate = true;
    s.recorder = true;
    s.traffic = "poisson:0.5";
    s.traffic_stream = 0x7fcULL;  // dglab's source stream
    s.ack_scale = 0.02;           // dglab's --ack-scale default
    s.phases = 8;
  } else {
    // campaigns/grid_scale.json's traffic_latency variant, saturating, on
    // the same grid as dglab_grid_poisson: at 256x256 the round loop's
    // working set made its run-to-run spread about four times larger.
    s.cols = s.rows = tiny ? 16 : 128;
    s.traffic = tiny ? "saturate:256" : "saturate:16384";
    s.traffic_stream = 5;  // the traffic_latency workload's source stream
    s.ack_scale = 0.01;
    s.phases = 4;
  }
  return s;
}

/// Records every offer a traffic source makes against an always-idle
/// service: the workload's generated arrival schedule.
class RecordingAdmission final : public traffic::Admission {
 public:
  explicit RecordingAdmission(std::size_t n) : n_(n) {}
  std::size_t nodes() const override { return n_; }
  bool service_busy(graph::Vertex) const override { return false; }
  std::size_t queue_depth(graph::Vertex) const override { return 0; }
  void offer(graph::Vertex v) override { mix(v); }
  void offer(graph::Vertex v, std::uint64_t content) override {
    mix(v);
    mix(content);
  }
  void mix(std::uint64_t x) { digest_ = splitmix64(digest_ ^ x); }
  std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::size_t n_;
  std::uint64_t digest_ = 0x9e3779b97f4a7c15ULL;
};

/// Digest of the seed-generated inputs of a grid workload: the process ids
/// and the first 256 rounds of the traffic arrival schedule.
std::uint64_t grid_inputs_digest(const GridShape& shape, std::uint64_t seed) {
  const std::size_t n = shape.cols * shape.rows;
  traffic::TrafficSpec tspec;
  traffic::parse_traffic_spec(shape.traffic, tspec);
  auto source = traffic::build_source(tspec, n,
                                      derive_seed(seed, shape.traffic_stream));
  RecordingAdmission rec(n);
  for (const sim::ProcessId id : sim::assign_ids(n, derive_seed(seed, 0x1d5ULL))) {
    rec.mix(id);
  }
  for (sim::Round r = 1; r <= 256; ++r) source->step(rec, r);
  return rec.digest();
}

std::string traffic_json(const traffic::TrafficStats& t) {
  std::ostringstream os;
  os << "{\"offered\": " << t.offered << ", \"enqueued\": " << t.enqueued
     << ", \"dropped\": " << t.dropped << ", \"admitted\": " << t.admitted
     << ", \"acked\": " << t.acked << ", \"aborted\": " << t.aborted
     << ", \"first_recvs\": " << t.first_recvs
     << ", \"crash_requeues\": " << t.crash_requeues
     << ", \"readmitted\": " << t.readmitted
     << ", \"wait_sum\": " << t.wait_sum
     << ", \"ack_latency_sum\": " << t.ack_latency_sum
     << ", \"recv_latency_sum\": " << t.recv_latency_sum
     << ", \"depth_samples\": " << t.depth_samples
     << ", \"depth_sum\": " << t.depth_sum
     << ", \"depth_max\": " << t.depth_max << "}";
  return os.str();
}

std::string spec_json(const lb::LbSpecReport& r) {
  std::ostringstream os;
  os << "{\"timely_ack_ok\": " << (r.timely_ack_ok ? "true" : "false")
     << ", \"validity_ok\": " << (r.validity_ok ? "true" : "false")
     << ", \"violations\": " << r.violations
     << ", \"reliability\": [" << r.reliability.successes() << ", "
     << r.reliability.trials() << "], \"progress\": ["
     << r.progress.successes() << ", " << r.progress.trials()
     << "], \"bcast\": " << r.bcast_count << ", \"ack\": " << r.ack_count
     << ", \"recv\": " << r.recv_count
     << ", \"raw_receptions\": " << r.raw_receptions << "}";
  return os.str();
}

Iteration run_grid(const GridShape& shape, std::uint64_t seed, bool traced,
                   Clock::time_point epoch) {
  Iteration it;
  it.traced = traced;
  Tracer tracer(traced);
  std::ostringstream logical;
  const Clock::time_point t0 = Clock::now();
  const int unit = tracer.open("unit");
  {
    std::unique_ptr<graph::DualGraph> graph;
    {
      ScopedSpan span(tracer, "graph.build");
      graph = std::make_unique<graph::DualGraph>(
          graph::grid(shape.cols, shape.rows, 1.0, 1.5));
    }
    const graph::DualGraph& g = *graph;
    logical << "{\"validated\": ";
    if (shape.validate) {
      ScopedSpan span(tracer, "graph.validate");
      logical << (graph::is_r_geographic(g, *g.embedding(), g.r())
                      ? "true" : "false");
    } else {
      logical << "null";
    }

    // Spec grammars dglab and the scn workloads parse before building.
    std::unique_ptr<sim::LinkScheduler> scheduler;
    traffic::TrafficSpec tspec;
    {
      ScopedSpan span(tracer, "scn.parse");
      if (!scn::validate_scheduler_spec("bernoulli:0.5").empty() ||
          !traffic::parse_traffic_spec(shape.traffic, tspec).empty()) {
        std::cerr << "perfbench: bad built-in spec\n";
        std::exit(1);
      }
      scheduler = scn::build_scheduler("bernoulli:0.5");
    }

    obs::Registry registry;
    sim::TraceRecorder recorder(16);
    std::unique_ptr<lb::LbSimulation> sim;
    {
      ScopedSpan span(tracer, "lb.construct");
      const double rss_before = peak_rss_mb();
      lb::LbScales scales;
      scales.ack_scale = shape.ack_scale;
      const auto params = lb::LbParams::calibrated(
          0.1, std::max(1.0, g.r()), g.delta(), g.delta_prime(), scales);
      sim = std::make_unique<lb::LbSimulation>(g, std::move(scheduler),
                                               params, seed);
      sim::EngineConfig config;
      config.with_round_threads(kRoundThreads);
      if (traced) config.with_telemetry(&registry);
      sim->configure(config);
      if (shape.recorder) sim->add_observer(&recorder);
      it.construct_rss_mb = peak_rss_mb() - rss_before;
    }
    {
      ScopedSpan span(tracer, "traffic.attach");
      sim->add_traffic(traffic::build_source(
          tspec, g.size(), derive_seed(seed, shape.traffic_stream)));
    }

    // The round loop: run_phases, one run_round at a time so each round is
    // attributed to the SeedAlg preamble or the LBAlg body by its position
    // in the group (round t sits at (t - 1) mod group_length).
    const Clock::time_point loop_begin = Clock::now();
    it.setup_s = seconds_between(t0, loop_begin);
    {
      ScopedSpan span(tracer, "lb.run_phases");
      const lb::LbParams& p = sim->params();
      const std::int64_t rounds = shape.phases * p.phase_length();
      for (std::int64_t t = 1; t <= rounds; ++t) {
        const Clock::time_point b = tracer.on() ? Clock::now() : loop_begin;
        sim->run_round();
        if (tracer.on()) {
          const bool preamble = (t - 1) % p.group_length() < p.t_s;
          tracer.leaf(preamble ? "seed.preamble" : "lb.body", b, Clock::now());
        }
      }
    }
    it.run_s = seconds_between(loop_begin, Clock::now());
    it.vertex_rounds =
        static_cast<double>(g.size()) * static_cast<double>(sim->round());
    it.trials = 1;

    std::string registry_json;
    {
      ScopedSpan span(tracer, "obs.export");
      sim->export_telemetry();
      if (traced) registry_json = registry.json(true);
    }
    logical << ", \"n\": " << g.size() << ", \"rounds\": " << sim->round()
            << ", \"traffic\": " << traffic_json(sim->traffic().stats())
            << ", \"spec\": " << spec_json(sim->report()) << "}";
    if (traced) {
      it.profile = "{\"registries\": [" + registry_json + "]}";
    }
    {
      ScopedSpan span(tracer, "lb.destroy");
      sim.reset();
    }
    {
      ScopedSpan span(tracer, "graph.destroy");
      graph.reset();
    }
  }
  tracer.close(unit);
  it.wall_s = seconds_between(t0, Clock::now());
  it.logical = logical.str();
  if (traced) it.spans = tracer.json(epoch);
  return it;
}

// ---- paper_campaigns (the dgcampaign run path) ----

struct CampaignDef {
  const char* file;  ///< campaigns/<file>.json
  const char* span;  ///< span / per-layer metric stem
};

constexpr CampaignDef kCampaigns[] = {
    {"e3_progress", "scn.campaign.e3"},
    {"e6_adversary", "scn.campaign.e6"},
    {"e13_r_sensitivity", "scn.campaign.e13"},
    {"e14_sinr", "scn.campaign.e14"},
    {"e15_traffic", "scn.campaign.e15"},
    {"e16_churn", "scn.campaign.e16"},
    {"smoke", "scn.campaign.smoke"},
};

/// Seed 1, input 0 runs every variant at its committed seed; any other
/// seed or input shifts every variant's base seed by the same amount.
std::uint64_t campaign_seed(std::uint64_t variant_seed, std::uint64_t seed,
                            std::uint64_t input) {
  return variant_seed + (seed - 1) * 1000003ULL + input * 999983ULL;
}

constexpr int kCampaignSetupSamples = 9;

std::vector<CampaignDef> campaign_set(bool tiny) {
  if (tiny) return {kCampaigns[6]};
  return {std::begin(kCampaigns), std::end(kCampaigns)};
}

std::uint64_t campaigns_inputs_digest(const std::vector<scn::Campaign>& cs) {
  std::uint64_t d = 0x9e3779b97f4a7c15ULL;
  for (const scn::Campaign& c : cs) {
    for (const scn::ScenarioSpec& v : c.variants) {
      for (const char ch : v.name) d = splitmix64(d ^ static_cast<unsigned char>(ch));
      d = splitmix64(d ^ v.seed);
      d = splitmix64(d ^ v.trials);
    }
  }
  return d;
}

std::vector<scn::Campaign> parse_campaigns(const std::string& dir,
                                           std::uint64_t seed,
                                           std::uint64_t input, bool tiny,
                                           bool force_obs) {
  std::vector<scn::Campaign> out;
  for (const CampaignDef& def : campaign_set(tiny)) {
    scn::CampaignParse parse =
        scn::parse_campaign_file(dir + "/" + def.file + ".json");
    if (!parse.ok()) {
      std::cerr << "perfbench: " << parse.error << "\n";
      std::exit(1);
    }
    for (scn::ScenarioSpec& v : parse.campaign.variants) {
      v.seed = campaign_seed(v.seed, seed, input);
      if (force_obs) v.obs = true;
    }
    out.push_back(std::move(parse.campaign));
  }
  return out;
}

Iteration run_campaigns(const std::string& dir, const std::string& artifacts,
                        std::uint64_t seed, std::uint64_t input, bool tiny,
                        bool traced, Clock::time_point epoch) {
  Iteration it;
  it.traced = traced;
  it.input = input;
  Tracer tracer(traced);
  const std::vector<CampaignDef> defs = campaign_set(tiny);
  std::ostringstream logical;
  std::ostringstream profile;
  // Parsing takes about a millisecond, so each iteration also times a few
  // extra parses outside the unit and reports the median of all of them.
  std::vector<double> setups;
  for (int k = 1; k < kCampaignSetupSamples; ++k) {
    const Clock::time_point b = Clock::now();
    parse_campaigns(dir, seed, input, tiny, traced);
    setups.push_back(seconds_between(b, Clock::now()));
  }
  const Clock::time_point t0 = Clock::now();
  {
    const int unit = tracer.open("unit");
    // Traced iterations force "obs" on every variant so the engine
    // profiler's timing domain reaches the per-variant registries.
    std::vector<scn::Campaign> campaigns = [&] {
      ScopedSpan span(tracer, "scn.parse");
      return parse_campaigns(dir, seed, input, tiny, traced);
    }();
    const Clock::time_point run_begin = Clock::now();
    setups.push_back(seconds_between(t0, run_begin));
    std::sort(setups.begin(), setups.end());
    it.setup_s = setups[setups.size() / 2];

    scn::RunOptions options;
    options.threads = 1;
    options.round_threads = kRoundThreads;
    std::vector<scn::CampaignResult> results;
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      ScopedSpan span(tracer, defs[i].span);
      results.push_back(scn::run_campaign(campaigns[i], options));
    }
    it.run_s = seconds_between(run_begin, Clock::now());

    logical << "{\"counters\": {";
    {
      ScopedSpan span(tracer, "scn.report");
      for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string error = scn::write_reports(
            results[i], artifacts + "/" + defs[i].file, "perfbench");
        if (!error.empty()) {
          std::cerr << "perfbench: " << error << "\n";
          std::exit(1);
        }
        logical << (i ? ", " : "") << "\"" << defs[i].file << "\": \""
                << scn::json::escape(scn::counters_json(results[i])) << "\"";
      }
    }
    logical << "}}";

    profile << "{\"registries\": [";
    bool first = true;
    for (scn::CampaignResult& r : results) {
      for (scn::VariantResult& v : r.variants) {
        it.trials += static_cast<double>(v.trials.size());
        if (!traced) continue;
        // Seed-deterministic vertex-round count of the variant's trials
        // (n is fixed per variant).
        it.vertex_rounds +=
            static_cast<double>(
                v.registry.counter("engine.rounds", obs::Domain::kLogical)) *
            v.registry.gauge("engine.vertices", obs::Domain::kLogical);
        profile << (first ? "" : ",\n    ") << v.registry.json(true);
        first = false;
      }
    }
    profile << "]}";
    {
      ScopedSpan span(tracer, "scn.destroy");
      results.clear();
      campaigns.clear();
    }
    tracer.close(unit);
  }
  it.wall_s = seconds_between(t0, Clock::now());
  it.logical = logical.str();
  if (traced) {
    it.profile = profile.str();
    it.spans = tracer.json(epoch);
  }
  return it;
}

// ---- command line ----

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string campaigns = "campaigns";
  std::string artifacts = ".";
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload W --seed S --seconds T "
               "--trace 0|1 --out FILE [--scale full|tiny] [--campaigns DIR] "
               "[--artifacts DIR] | --build-info\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = value == "1";
      else if (key == "--scale") a.tiny = value == "tiny";
      else if (key == "--campaigns") a.campaigns = value;
      else if (key == "--artifacts") a.artifacts = value;
      else if (key == "--out") a.out = value;
      else usage("unknown flag " + key);
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload != "dglab_grid_poisson" &&
      a.workload != "grid_saturate" &&
      a.workload != "paper_campaigns") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.out.empty()) usage("--out is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--build-info") {
    std::cout << build_info_json() << "\n";
    return 0;
  }
  const Args args = parse_args(argc, argv);
  if (!optimized_build() || sanitized_build()) {
    std::cerr << "perfbench_driver: refusing to time a "
              << (sanitized_build() ? "sanitizer" : "Debug/unoptimized")
              << " build (" << build_info_json() << ")\n";
    return 3;
  }

  const Clock::time_point epoch = Clock::now();
  const bool campaigns = args.workload == "paper_campaigns";
  const GridShape shape = grid_shape(args.workload, args.tiny);
  const std::uint64_t inputs =
      campaigns ? campaigns_inputs_digest(parse_campaigns(
                      args.campaigns, args.seed, 0, args.tiny, false))
                : grid_inputs_digest(shape, args.seed);

  // The schedule in the header comment: a warm-up, then iterations until
  // the budget is spent -- at least three counted grid iterations, or four
  // campaign inputs, whose work varies with their seeds.
  std::vector<Iteration> iterations;
  auto run = [&](bool traced, std::uint64_t input) {
    const double cpu = process_cpu_s();
    Iteration it = campaigns
                       ? run_campaigns(args.campaigns, args.artifacts,
                                       args.seed, input, args.tiny, traced,
                                       epoch)
                       : run_grid(shape, args.seed, traced, epoch);
    it.cpu_s = process_cpu_s() - cpu;
    iterations.push_back(std::move(it));
  };
  Clock::time_point begin;
  for (std::uint64_t k = 0;; ++k) {
    if (campaigns) {
      run(true, k);
      run(false, k);
      iterations.back().vertex_rounds = iterations.end()[-2].vertex_rounds;
    } else {
      run(k == 0 ? !args.trace : args.trace && k % 2 == 1, 0);
    }
    if (k == 0) begin = Clock::now();
    if (k >= 3 && seconds_between(begin, Clock::now()) >= args.seconds) break;
  }

  std::ofstream os(args.out);
  os.precision(17);
  os << "{\n  \"build\": " << build_info_json() << ",\n  \"workload\": \""
     << args.workload << "\",\n  \"seed\": " << args.seed
     << ",\n  \"scale\": \"" << (args.tiny ? "tiny" : "full")
     << "\",\n  \"inputs_digest\": \"" << std::hex << inputs << std::dec
     << "\",\n  \"peak_rss_mb\": " << peak_rss_mb()
     << ",\n  \"iterations\": [";
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    const Iteration& it = iterations[i];
    os << (i ? ",\n" : "\n") << "  {\"traced\": " << (it.traced ? "true" : "false")
       << ", \"input\": " << it.input
       << ", \"setup_s\": " << it.setup_s << ", \"run_s\": " << it.run_s
       << ", \"wall_s\": " << it.wall_s << ", \"cpu_s\": " << it.cpu_s
       << ", \"vertex_rounds\": " << it.vertex_rounds
       << ", \"trials\": " << it.trials
       << ", \"construct_rss_mb\": " << it.construct_rss_mb
       << ",\n   \"logical\": " << it.logical;
    if (it.traced) {
      os << ",\n   \"profile\": " << it.profile
         << ",\n   \"spans\": " << it.spans;
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  os.close();
  if (!os) {
    std::cerr << "perfbench_driver: cannot write " << args.out << "\n";
    return 1;
  }
  return 0;
}
