// RoundStage -- the unit of composition in the round pipeline.
//
// A stage declares which named slabs (sim/slab.h) it reads and writes and
// whether its writes are per-vertex-disjoint; the pipeline driver
// (Engine::run_pipeline) uses the declarations to decide dispatch: a stage
// with vertex_disjoint_writes() runs block-parallel on the engine's thread
// pool in sharded rounds, everything else runs serial.  Determinism across
// round_threads is preserved by the hook split below, not by scheduling:
// anything order-sensitive (observer fan-out, wrapper checkpoints) lives
// in the serial hooks.
//
// Hook order per stage, per round:
//   prologue()    serial, both dispatches, first inside the profiler
//                 bracket (slab resets go here)
//   run()         serial dispatch only: the full phase body, inline
//                 observer fan-out included
//   run_block()   sharded dispatch only: the parallel body for one vertex
//                 block [begin, end); must touch only per-vertex state.
//                 Core stages write run() and run_block() as one body over
//                 the round's activity-mask words; a round that needs
//                 every vertex gets an all-ones mask, not a second body
//   replay()      sharded dispatch only, serial, after all blocks: replays
//                 the observer stream in ascending vertex order -- the
//                 exact events run() would have emitted inline
//   epilogue()    serial, both dispatches, last inside the bracket
//                 (RoundHooks checkpoints fire here)
//   after_phase() serial, both dispatches, outside the profiler bracket
//                 (logical-metrics passes go here so they are not timed)
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
  bool sharded = false;  ///< this round runs the block-parallel dispatch
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
  /// runs with a plan installed; prepare_round only in sharded rounds).
  /// Inactive stages are skipped entirely -- no profiler bracket.
  virtual bool active(bool sharded) const {
    (void)sharded;
    return true;
  }

  virtual void prologue(RoundState& rs) { (void)rs; }
  virtual void run(RoundState& rs) = 0;
  virtual void run_block(RoundState& rs, graph::Vertex begin,
                         graph::Vertex end) {
    // Default for serial-only stages: never called (the driver dispatches
    // run() when vertex_disjoint_writes() is false).
    (void)rs;
    (void)begin;
    (void)end;
  }
  virtual void replay(RoundState& rs) { (void)rs; }
  virtual void epilogue(RoundState& rs) { (void)rs; }
  virtual void after_phase(RoundState& rs) { (void)rs; }
};

}  // namespace dg::sim
