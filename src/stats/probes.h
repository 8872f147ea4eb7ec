// Reusable measurement observers for the experiment harness.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dual_graph.h"
#include "sim/observer.h"

namespace dg::stats {

/// Records, per vertex, the first round a *data* packet was received.
/// In single-source experiments (one designated always-active broadcaster)
/// this is exactly the progress latency the t_prog experiments measure.
class FirstReceptionProbe final : public sim::Observer {
 public:
  explicit FirstReceptionProbe(std::size_t n) : first_round_(n, 0) {}

  unsigned interest() const override { return kReceive; }
  void on_receive(sim::Round round, graph::Vertex u, graph::Vertex,
                  const sim::Packet& packet) override {
    if (!packet.is_data()) return;
    if (first_round_[u] == 0) first_round_[u] = round;
  }

  /// 0 if the vertex never received a data packet.
  sim::Round first_reception(graph::Vertex u) const {
    return first_round_[u];
  }

  const std::vector<sim::Round>& all() const noexcept { return first_round_; }

 private:
  std::vector<sim::Round> first_round_;
};

/// Records, per vertex, the first round each of a set of tracked message
/// contents was received (by content value).  Used by delivery-latency
/// measurements where specific messages matter.
class ContentReceptionProbe final : public sim::Observer {
 public:
  ContentReceptionProbe(std::size_t n, std::uint64_t tracked_content)
      : tracked_(tracked_content), first_round_(n, 0) {}

  unsigned interest() const override { return kReceive; }
  void on_receive(sim::Round round, graph::Vertex u, graph::Vertex,
                  const sim::Packet& packet) override {
    if (!packet.is_data() || packet.data().content != tracked_) return;
    if (first_round_[u] == 0) first_round_[u] = round;
  }

  sim::Round first_reception(graph::Vertex u) const {
    return first_round_[u];
  }

 private:
  std::uint64_t tracked_;
  std::vector<sim::Round> first_round_;
};

/// Counts transmissions and receptions per round bucket (engine throughput
/// and contention diagnostics).
class TrafficProbe final : public sim::Observer {
 public:
  unsigned interest() const override {
    return kTransmit | kReceive | kCollision;
  }
  void on_transmit(sim::Round, graph::Vertex, const sim::Packet&) override {
    ++transmissions_;
  }
  void on_receive(sim::Round, graph::Vertex, graph::Vertex,
                  const sim::Packet&) override {
    ++receptions_;
  }
  void on_silence(sim::Round, graph::Vertex, bool collision) override {
    if (collision) ++collisions_;
  }

  std::uint64_t transmissions() const noexcept { return transmissions_; }
  std::uint64_t receptions() const noexcept { return receptions_; }
  std::uint64_t collisions() const noexcept { return collisions_; }

 private:
  std::uint64_t transmissions_ = 0;
  std::uint64_t receptions_ = 0;
  std::uint64_t collisions_ = 0;
};

}  // namespace dg::stats
