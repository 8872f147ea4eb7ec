// Bounded execution trace recorder.
//
// Records the last `capacity` wire-level events (transmissions, receptions,
// collisions) in a ring buffer and renders them as text.  Debugging and
// observability tooling: examples print the final rounds of an execution,
// tests assert on exact event sequences without hand-rolled observers.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>

#include "sim/observer.h"

namespace dg::sim {

class TraceRecorder final : public Observer {
 public:
  enum class EventKind {
    transmit,
    receive,
    collision,
    round_begin,
    round_end,
    crash,
    recover,
  };

  struct Event {
    Round round = 0;
    EventKind kind = EventKind::transmit;
    graph::Vertex vertex = 0;          ///< acting vertex (tx/rx/fault);
                                       ///< 0 for round markers
    graph::Vertex peer = 0;            ///< sender for receive events
    bool is_data = false;              ///< data vs seed payload
    std::uint64_t detail = 0;          ///< content (data) / owner (seed)
  };

  /// Keeps at most `capacity` events (oldest dropped first).
  explicit TraceRecorder(std::size_t capacity = 4096);

  /// Opt-in extra event classes.  Both must be set BEFORE the recorder is
  /// registered with the engine: interest() is sampled once at
  /// add_observer() time.
  void enable_round_markers(bool on) { round_markers_ = on; }
  void enable_fault_events(bool on) { fault_events_ = on; }

  unsigned interest() const override {
    return kTransmit | kReceive | kCollision |
           (round_markers_ ? (kRoundBegin | kRoundEnd) : 0u) |
           (fault_events_ ? kFault : 0u);
  }
  void on_transmit(Round round, graph::Vertex v, const Packet& p) override;
  void on_receive(Round round, graph::Vertex u, graph::Vertex from,
                  const Packet& p) override;
  void on_silence(Round round, graph::Vertex u, bool collision) override;
  void on_round_begin(Round round) override;
  void on_round_end(Round round) override;
  void on_crash(Round round, graph::Vertex v) override;
  void on_recover(Round round, graph::Vertex v) override;

  const std::deque<Event>& events() const noexcept { return events_; }
  std::size_t dropped() const noexcept { return dropped_; }
  void clear();

  /// Renders one event per line: "round 17: v3 -> v5 data content=42".
  void print(std::ostream& os) const;
  static std::string describe(const Event& event);

 private:
  void push(Event event);

  std::size_t capacity_;
  std::deque<Event> events_;
  std::size_t dropped_ = 0;
  bool round_markers_ = false;
  bool fault_events_ = false;
};

}  // namespace dg::sim
