// RoundStage -- the unit of composition in the round pipeline.
//
// A stage declares which named slabs (sim/slab.h) it reads and writes and
// whether its writes are per-vertex-disjoint; the pipeline driver
// (Engine::run_pipeline) uses the declarations to decide dispatch.  There
// is one dispatch: every stage's run() body covers a vertex range.  A
// serial round calls it once over [0, n); a sharded round calls it per
// 64-aligned block on the engine's thread pool when the stage declares
// vertex_disjoint_writes(), and once over [0, n) otherwise.  Determinism
// across round_threads is preserved by the hook split below, not by
// scheduling: anything order-sensitive (observer fan-out, wrapper
// checkpoints) lives in the serial hooks, which run in every round.
//
// Hook order per stage, per round:
//   prologue()    serial, first inside the profiler bracket (slab resets
//                 and serial pre-passes go here)
//   run()         the body for the vertex range [begin, end): the whole
//                 range in serial rounds and for stages without
//                 vertex_disjoint_writes(), one block per call otherwise
//                 (then it must touch only that block's per-vertex state).
//                 Core stages write it over the round's activity-mask
//                 words; a round that needs every vertex gets an all-ones
//                 mask, not a second body.  Emits no observer events
//   replay()      serial, after every run() call: fans the stage's
//                 observer events out in ascending vertex order, so a
//                 stage's events follow all of its process calls
//   epilogue()    serial, last inside the bracket (RoundHooks checkpoints
//                 fire here)
//   after_phase() serial, outside the profiler bracket (logical-metrics
//                 passes go here so they are not timed)
//
// Core stages are friends of the Engine (defined in sim/engine.cpp);
// spliced stages (sim/splice.h) see only this RoundState view.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dual_graph.h"
#include "sim/packet.h"
#include "sim/slab.h"
#include "util/bitmap.h"

namespace dg::obs {
class Registry;
class TraceSink;
}  // namespace dg::obs

namespace dg::sim {

/// The per-round state a spliced stage may see: pointers into the engine's
/// slabs plus the round header.  Slab pointers are stable for the engine's
/// lifetime; which ones a stage may dereference is bounded by its declared
/// read/write sets (validated at splice time).
struct RoundState {
  std::int64_t round = 0;
  bool faults = false;   ///< a fault plan is installed
  bool sharded = false;  ///< this round runs its run() bodies per block
  std::size_t vertex_count = 0;
  std::size_t block_size = 0;  ///< sharded partition stride (0 when serial)

  Bitmap* transmitting = nullptr;        ///< Slab::kTransmitBitmap
  std::vector<Packet>* packets = nullptr;       ///< Slab::kPacketSlab
  std::vector<std::uint64_t>* heard = nullptr;  ///< Slab::kHeardWords
  Bitmap* crashed = nullptr;             ///< Slab::kCrashedBitmap
  Bitmap* delivery_mask = nullptr;       ///< Slab::kDeliveryMask
  /// Slab::kActivityMask (the frontier): heard entries outside its
  /// non-zero words are stale.  All-ones in every round once a stage
  /// declaring a kHeardWords read is spliced in (and in the oracle mode).
  const Bitmap* activity = nullptr;
  /// Set true by a mask-writing stage to arm the ReceiveStage mask check
  /// for this round; reset by the driver at round start.
  bool* deliver_masked = nullptr;

  obs::Registry* registry = nullptr;     ///< may be null
  obs::TraceSink* trace = nullptr;       ///< may be null
};

class RoundStage {
 public:
  virtual ~RoundStage() = default;

  /// Stable stage name: the profiler counter suffix and the trace slice
  /// label ("transmit", "compute", ...; spliced stages pick fresh names).
  virtual std::string name() const = 0;

  /// Slabs this stage reads / writes.  Writes must be declared exactly:
  /// the splice validator rejects a spliced stage whose write set overlaps
  /// a core-owned slab or another splice's writes.
  virtual SlabSet reads() const = 0;
  virtual SlabSet writes() const = 0;

  /// True iff every write the stage performs lands in state owned by a
  /// single vertex (or in bitmap words wholly owned by one 64-aligned
  /// block).  Grants block-parallel dispatch in sharded rounds.
  virtual bool vertex_disjoint_writes() const { return false; }

  /// Whether the stage participates this round (e.g. the fault stage only
  /// runs with a plan installed).  Inactive stages are skipped entirely --
  /// no profiler bracket.
  virtual bool active() const { return true; }

  virtual void prologue(RoundState& rs) { (void)rs; }
  virtual void run(RoundState& rs, graph::Vertex begin,
                   graph::Vertex end) = 0;
  virtual void replay(RoundState& rs) { (void)rs; }
  virtual void epilogue(RoundState& rs) { (void)rs; }
  virtual void after_phase(RoundState& rs) { (void)rs; }
};

}  // namespace dg::sim
