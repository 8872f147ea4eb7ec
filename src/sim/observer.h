// Execution observers.
//
// Spec checkers, statistics collectors, and trace recorders watch executions
// through this interface instead of storing full traces: a multi-hundred-
// thousand-round Monte Carlo run would otherwise exhaust memory.  Observers
// see ground truth (who transmitted, who received what from whom) that the
// *processes* themselves cannot see -- exactly the vantage point the paper's
// proofs take.
//
// Event order: fault events first, then on_round_begin, then each stage's
// events in pipeline order (transmissions, then receptions and silences).
// A stage's observer events follow all of that stage's process calls and
// arrive in ascending vertex order, whatever the round's thread count: an
// observer may read process state, but it sees the state after the whole
// stage, not after the one vertex it is told about.
#pragma once

#include "graph/dual_graph.h"
#include "sim/packet.h"
#include "sim/process.h"

namespace dg::sim {

class Observer {
 public:
  /// Event-interest bits.  The engine partitions observers per event at
  /// registration time, so an observer that only watches receptions never
  /// costs a virtual call on the (far more frequent) silences.
  /// kCollision delivers on_silence only for collisions (collision ==
  /// true): an observer that drops plain silences anyway should ask for it
  /// instead of kSilence, which lets the engine skip the silent bulk of
  /// the network.  kSilence implies it.
  enum : unsigned {
    kRoundBegin = 1u << 0,
    kTransmit = 1u << 1,
    kReceive = 1u << 2,
    kSilence = 1u << 3,
    kRoundEnd = 1u << 4,
    kFault = 1u << 5,
    kCollision = 1u << 6,
    kAllEvents = (1u << 7) - 1,
  };

  virtual ~Observer() = default;

  /// Which events this observer wants delivered.  Default: everything.
  /// Overriders MUST include the bit for every handler they override --
  /// events outside the mask are never delivered.
  virtual unsigned interest() const { return kAllEvents; }

  virtual void on_round_begin(Round round) { (void)round; }

  /// Vertex v transmitted `packet` in `round`.
  virtual void on_transmit(Round round, graph::Vertex v,
                           const Packet& packet) {
    (void)round;
    (void)v;
    (void)packet;
  }

  /// Listening vertex u received `packet` from vertex `from` in `round`
  /// (the single-transmitter rule was satisfied at u).
  virtual void on_receive(Round round, graph::Vertex u, graph::Vertex from,
                          const Packet& packet) {
    (void)round;
    (void)u;
    (void)from;
    (void)packet;
  }

  /// Listening vertex u heard nothing in `round`.  `collision` is true when
  /// two or more of u's round-neighbors transmitted (information available
  /// to the analysis but *not* to u: no collision detection).  Needs
  /// kSilence, or kCollision for the collision == true calls only.
  virtual void on_silence(Round round, graph::Vertex u, bool collision) {
    (void)round;
    (void)u;
    (void)collision;
  }

  virtual void on_round_end(Round round) { (void)round; }

  /// Vertex v crashed / recovered at the top of `round` (fault-plan
  /// events, fired serially from the engine's fault checkpoint after the
  /// process and fault-listener callbacks ran).  Requires the kFault
  /// interest bit.
  virtual void on_crash(Round round, graph::Vertex v) {
    (void)round;
    (void)v;
  }
  virtual void on_recover(Round round, graph::Vertex v) {
    (void)round;
    (void)v;
  }
};

}  // namespace dg::sim
