// The synchronous-round execution engine (Section 2 semantics).
//
// Each round: every process decides transmit-or-receive; the round topology
// is E plus the unreliable edges the (pre-committed, oblivious) scheduler
// includes; a listening node receives a packet iff exactly one of its
// round-topology neighbors transmitted; otherwise it receives the null
// indicator (no collision detection).  Transmitters hear nothing.
//
// The engine is protocol-agnostic: environments and protocol wrappers
// interact with typed Process subclasses *between* calls to run_round(),
// which realizes the paper's inputs -> transmit -> receive -> outputs round
// micro-structure.
//
// Reception physics is delegated to a phys::ChannelModel: the default
// DualGraphChannel realizes the Section 2 single-transmitter rule over the
// scheduled round topology, while SinrChannel replaces it with SINR
// ground-truth physics over an embedding.  The engine itself only owns the
// round structure: transmit decisions, the channel call, delivery of the
// channel's verdicts, and observer fan-out.
//
// Hot-path layout: outgoing packets live in a flat per-vertex slab gated by
// a transmit bitmask (no per-round optional churn), and the channel folds
// heard-count + heard-from into a single packed word per vertex (see
// phys/channel.h for the contract).  None of this changes the observable
// round semantics (tests/determinism_test.cpp pins golden execution
// digests).
// Sharded rounds: when round_threads > 1 and every process is shard_safe(),
// run_round() partitions the vertices into cache-aligned blocks (multiples
// of 64 vertices, so each block owns whole transmit-bitmap words) and runs
// the transmit, receive and output phases block-parallel on a persistent
// thread pool.  A serial round is the same
// dispatch with one block, [0, n).  The channel's reception runs as one
// serial compute_round() call in every round (a channel may shard its own
// precompute over the idle pool).  Determinism is preserved structurally,
// not by scheduling: blocks write disjoint per-vertex state, each vertex
// draws only from its own rng stream, and observers are fanned out
// *serially* after each stage's bodies, in ascending vertex order, in every
// round.  Golden digests and campaign counters are therefore byte-identical
// at any thread count (tests/engine_shard_test.cpp sweeps the contract).
// Fault injection: an installed fault::FaultPlan is consulted serially at
// the top of every round, before any parallel phase starts.
// Crashed vertices are skipped in the transmit, reception and output
// phases -- no process calls, no observer events, rng stream paused -- so
// a fault schedule stays byte-identical across round_threads too.
//
// Round pipeline: internally the round is an explicit stage pipeline
// (fault -> transmit -> frontier -> compute -> receive -> output_flush; see
// sim/stage.h for the stage contract and docs/PIPELINE.md for the slab
// catalog).  One driver, run_pipeline(), and one dispatch: each stage has
// one run() body over a vertex range, called per block in sharded rounds
// when the stage declares vertex_disjoint_writes() and once over [0, n)
// otherwise, and the serial replay / RoundHooks checkpoints are stage hooks
// that run in every round.  Each body is written over the round's activity
// mask (the frontier): a round that needs every vertex -- the oracle mode,
// or a splice reading heard_words -- runs the same body under an all-ones
// mask.  Scenario
// splices (sim/splice.h) insert extra stages after their anchor without
// engine edits; their write sets are validated against the core stages'
// slab ownership first (see splice_stage()).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/plan.h"
#include "graph/dual_graph.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "phys/channel.h"
#include "sim/adaptive.h"
#include "sim/engine_config.h"
#include "sim/observer.h"
#include "sim/packet.h"
#include "sim/pipeline.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/splice.h"
#include "util/bitmap.h"
#include "util/thread_pool.h"

namespace dg::sim {

/// Assigns distinct ProcessIds to graph vertices (the paper's id() mapping,
/// unknown to the processes).  Ids are pseudorandom 64-bit values so no
/// process can infer topology from id structure.
std::vector<ProcessId> assign_ids(std::size_t n, std::uint64_t seed);

/// Serial checkpoints between the phases of a round, fired on the engine's
/// calling thread in every round.  Protocol wrappers that buffer per-vertex
/// callbacks during the (possibly parallel) reception and output phases
/// flush them here, in ascending vertex order, so the callback stream is
/// the same at every thread count (see lb/simulation.h for the
/// LbSimulation fan-out that motivates this).
class RoundHooks {
 public:
  virtual ~RoundHooks() = default;
  /// After every process's receive() for `round` and after the reception
  /// observers have been fanned out.
  virtual void after_receive_phase(Round round) = 0;
  /// After every process's end_round() for `round`, before on_round_end.
  virtual void after_output_phase(Round round) = 0;
};

struct EngineStages;  ///< the core stage set (defined in sim/engine.cpp)

class Engine {
 public:
  /// The graph and scheduler must outlive the engine.  `processes[v]` is the
  /// process at graph vertex v; the scheduler is committed here (with a
  /// stream derived from master_seed), before any round executes.  Wraps the
  /// scheduler in an engine-owned phys::DualGraphChannel.
  Engine(const graph::DualGraph& g, LinkScheduler& scheduler,
         std::vector<std::unique_ptr<Process>> processes,
         std::uint64_t master_seed);

  /// Same, but with an explicit channel model deciding reception (e.g.
  /// phys::SinrChannel).  The channel must outlive the engine and not be
  /// shared; it is bound here, before any round executes.
  Engine(const graph::DualGraph& g, phys::ChannelModel& channel,
         std::vector<std::unique_ptr<Process>> processes,
         std::uint64_t master_seed);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Applies a whole configuration in one call, in a fixed order: thread
  /// cap, oracle switch, fault plan, spliced stages, telemetry (splices
  /// first so the profiler registers their per-stage timers).  The one
  /// mutator surface for these knobs.  Splices must have passed
  /// validate_splice_specs(); the oracle switch may only be set before
  /// round 1.
  void configure(const EngineConfig& config);

  /// Splices one extra stage into the round pipeline after its anchor
  /// stage, validating its write set against the core stages' slab
  /// ownership and the already-installed splices.  Returns "" on success
  /// or the violation message (the pipeline is unchanged on failure).
  std::string splice_stage(const SpliceSpec& spec);

  /// Splices installed so far, in installation order.
  const std::vector<SpliceSpec>& splices() const noexcept {
    return splices_;
  }

  /// Observers are invoked in registration order; they must outlive the
  /// engine.
  void add_observer(Observer* observer);

  /// Installs an ADAPTIVE adversary (see sim/adaptive.h) that overrides the
  /// oblivious scheduler for unreliable edges.  Deliberately outside the
  /// paper's model -- used only by the E12 impossibility counterfactual.
  /// Requires a scheduler-driven channel (the default DualGraphChannel).
  void set_adaptive_adversary(AdaptiveAdversary* adversary) {
    channel_->set_adaptive_adversary(adversary);
  }

  /// The channel model deciding reception for this execution.
  const phys::ChannelModel& channel() const noexcept { return *channel_; }

  /// Rounds executed so far (0 before the first run_round()).
  Round round() const noexcept { return round_; }

  /// The thread budget new engines start with: the DG_ROUND_THREADS
  /// environment variable ("max" = hardware concurrency, a positive integer
  /// = that many threads, unset/invalid = 1).
  static std::size_t default_round_threads();

  /// Whether new engines start with frontier parking on: the
  /// DG_SPARSE_ROUNDS environment variable ("0"/"off"/"false" selects the
  /// oracle mode; anything else, including unset, the default).
  static bool default_sparse_rounds();

  /// False in the oracle mode (EngineConfig::with_sparse_rounds(false)):
  /// every round runs with a full activity mask and no process is parked --
  /// the same round bodies, used as the test reference for the computed
  /// frontier (see docs/PIPELINE.md).
  bool sparse_rounds() const noexcept { return sparse_enabled_; }

  /// Round thread cap (in [1, kMaxRoundThreads]; 1 = serial rounds), set
  /// through EngineConfig::with_round_threads.  The engine still runs
  /// serial whenever the vertex count yields fewer than two blocks or a
  /// process was not shard_safe() at construction -- the knob is an upper
  /// bound, never a semantics switch (results are byte-identical for every
  /// value).
  std::size_t round_threads() const noexcept { return round_threads_; }

  /// This round's activity mask (Slab::kActivityMask): the vertices whose
  /// heard words the compute stage filled.
  const Bitmap& activity_mask() const noexcept { return frontier_; }

  /// True while vertex v is crashed by the installed fault plan.
  bool crashed(graph::Vertex v) const { return crashed_.test(v); }
  /// Crashed vertices this round (count() for a population probe).
  const Bitmap& crashed_vertices() const noexcept { return crashed_; }

  /// Installs the serial between-phase checkpoints (nullptr to remove).
  /// The hooks object must outlive the engine and is fired in every round,
  /// serial or sharded.
  void set_round_hooks(RoundHooks* hooks) { hooks_ = hooks; }

  /// Executes one synchronous round (steps 2-4 of the round structure;
  /// step 1, environment inputs, happens before this call via typed process
  /// APIs).
  void run_round();

  void run_rounds(Round count);

  const graph::DualGraph& network() const noexcept { return *graph_; }
  std::size_t process_count() const noexcept { return processes_.size(); }

  Process& process(graph::Vertex v);
  const Process& process(graph::Vertex v) const;

  /// The process-local random stream for vertex v (exposed so protocol
  /// wrappers can make *input-side* random choices attributable to the same
  /// process stream; the engine itself never draws from these between a
  /// process's own steps).
  Rng& process_rng(graph::Vertex v);

 private:
  friend struct EngineStages;  ///< the core stage set, sim/engine.cpp

  void init(std::uint64_t master_seed);  ///< shared constructor tail

  /// Vertices per shard block for the current thread cap: the vertex range
  /// split into ~4 blocks per thread (dynamic claiming evens out skewed
  /// blocks), rounded up to a multiple of 64 so every block owns whole
  /// bitmap words and exclusive heard_ cache lines.
  std::size_t shard_block_size() const;

  /// The one round driver: walks the pipeline slots in order, bracketing
  /// each active stage with its profiler slot and running
  /// vertex-disjoint-write stages per block when `sharded` (block_size /
  /// blocks describe the partition; unused serial).
  void run_pipeline(bool sharded, std::size_t block_size,
                    std::size_t blocks);

  // configure() bodies, applied in configure()'s fixed order.
  //
  // apply_fault_plan: the plan is bound to the execution's graph and
  // master seed, then consulted serially at the top of every later round;
  // `listener` receives crash/recover notifications -- before
  // Process::on_crash on a crash, after Process::on_recover on a recovery
  // (see fault/plan.h).
  //
  // apply_telemetry: the registry receives LOGICAL per-round counters
  // (rounds, transmissions, delivery/collision/silence verdicts, fault
  // events), tallied in a serial pass over the channel's verdicts and so
  // byte-identical across round_threads, plus TIMING phase/dispatch
  // metrics that are wall-clock and never gated.  The sink receives
  // per-round stage slices and crash/recover instants.
  void apply_round_threads(std::size_t threads);
  void apply_fault_plan(fault::FaultPlan* plan,
                        fault::FaultListener* listener);
  void apply_telemetry(obs::Registry* registry, obs::TraceSink* sink);
  void apply_sparse_rounds(bool on);

  /// (Re)creates the profiler against registry_ and assigns every pipeline
  /// slot its timing slot, in pipeline order.  Registry counters are keyed
  /// by name, so a rebuild keeps accumulating into the same counters.
  void rebuild_profiler();

  /// Serial fault checkpoint at the top of every round: asks the plan for
  /// this round's events and applies them (crashed_ bitmap, process and
  /// listener callbacks) before any phase -- parallel or not -- runs.
  void apply_faults(Round t);

  /// Serial logical-metrics pass over the round's frozen verdicts
  /// (transmitting_, heard_ through the frontier, crashed_), run after the
  /// compute stage in every dispatch -- the reason logical registry dumps
  /// are byte-identical across round_threads and the oracle mode.  Only
  /// runs when a registry is installed.
  void record_logical_round();

  const graph::DualGraph* graph_;
  std::unique_ptr<phys::ChannelModel> owned_channel_;  ///< scheduler ctor only
  phys::ChannelModel* channel_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Rng> rngs_;
  // Per-event fan-out lists (filtered by Observer::interest() at
  // registration, in registration order), so uninterested observers cost
  // nothing per event.
  std::vector<Observer*> obs_round_begin_;
  std::vector<Observer*> obs_transmit_;
  std::vector<Observer*> obs_receive_;
  std::vector<Observer*> obs_silence_;
  std::vector<Observer*> obs_collision_;  ///< kSilence or kCollision
  std::vector<Observer*> obs_round_end_;
  std::vector<Observer*> obs_fault_;
  Round round_ = 0;

  // Telemetry (see apply_telemetry).  Logical counter slots are cached
  // registry references so the per-round pass never pays a map lookup.
  obs::Registry* registry_ = nullptr;
  obs::TraceSink* trace_sink_ = nullptr;
  std::unique_ptr<obs::PhaseProfiler> profiler_;
  std::uint64_t* m_rounds_ = nullptr;
  std::uint64_t* m_tx_ = nullptr;
  std::uint64_t* m_delivered_ = nullptr;
  std::uint64_t* m_collisions_ = nullptr;
  std::uint64_t* m_silent_ = nullptr;
  std::uint64_t* m_crashes_ = nullptr;
  std::uint64_t* m_recoveries_ = nullptr;
  std::uint64_t* m_dispatch_serial_ = nullptr;
  std::uint64_t* m_dispatch_sharded_ = nullptr;
  std::uint64_t* m_active_blocks_ = nullptr;
  std::uint64_t* m_steps_ = nullptr;
  double* m_frontier_fraction_ = nullptr;
  obs::Registry::Histogram* m_tx_per_round_ = nullptr;

  std::size_t round_threads_ = 1;
  bool all_shard_safe_ = false;  ///< every process consented, at init()
  RoundHooks* hooks_ = nullptr;
  std::unique_ptr<util::ThreadPool> pool_;  ///< created on first sharded round

  std::uint64_t master_seed_ = 0;  ///< kept for late fault-plan binding
  fault::FaultPlan* fault_plan_ = nullptr;
  fault::FaultListener* fault_listener_ = nullptr;
  Bitmap crashed_;  ///< bit v = v is down; written only by the fault stage
  std::vector<fault::FaultEvent> fault_events_;  ///< per-round scratch

  // Scratch reused every round, sized once at construction.
  std::vector<Packet> outgoing_slab_;   ///< packet of v iff v transmits
  Bitmap transmitting_;                 ///< bit v = v transmits this round
  /// Packed reception state written by the channel: high 32 bits = last
  /// heard-from vertex, low 32 bits = number of decodable senders.
  std::vector<std::uint64_t> heard_;
  /// Slab::kDeliveryMask -- bit u = suppress delivery to u this round.
  /// Only consulted when deliver_masked_ (armed per round by a
  /// mask-writing spliced stage, reset by the driver).
  Bitmap delivery_mask_;
  bool deliver_masked_ = false;
  /// The receive stage's verdicts for its observer replay: bit u = u
  /// decoded a packet that was delivered / heard a collision this round.
  /// Written by the receive body for frontier words only; stale elsewhere.
  Bitmap delivered_;
  Bitmap collided_;

  // ---- frontier dispatch (see docs/PIPELINE.md) ----
  // The frontier stage computes frontier_ (Slab::kActivityMask) each round:
  // every vertex whose heard_ word could be non-zero, or every vertex when
  // the round needs a full mask.  Compute zeroes and fills only frontier
  // words (entries outside them are stale and never read); transmit/
  // receive/output skip words whose every vertex is parked on a silent
  // promise.  Bookkeeping invariants: last_stepped_[v] = the round through
  // which v's cursor has advanced (batched silent_steps() jumps included);
  // silent_until_[v] >= t means v is parked at round t (crashed vertices
  // park forever and are restored by the fault stage on recovery);
  // word_silent_until_[w] is a conservative (<= actual) minimum over word
  // w's vertices.
  bool sparse_enabled_ = true;  ///< false = oracle mode (DG_SPARSE_ROUNDS)
  bool splice_reads_heard_ = false;  ///< a splice declares a heard read
  Bitmap frontier_;                          ///< Slab::kActivityMask
  std::vector<std::size_t> active_words_;    ///< non-zero frontier words
  /// Vertex steps (transmit() calls, wakes included) taken this round, one
  /// slot per dispatch block; summed serially into engine.steps.
  std::vector<std::uint64_t> block_steps_;
  std::vector<Round> last_stepped_;
  std::vector<Round> silent_until_;
  std::vector<Round> word_silent_until_;

  // The stage pipeline: core stages (owned via stages_) plus splices
  // (owned by the pipeline), walked in order by run_pipeline().
  std::unique_ptr<EngineStages> stages_;
  RoundPipeline pipeline_;
  std::vector<SpliceSpec> splices_;  ///< installed, for conflict checks
};

}  // namespace dg::sim
