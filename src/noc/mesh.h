// The 2D-mesh NoC timing model.
//
// Virtual cut-through at cache-line (= packet) granularity: a packet from
// tile S to tile D advances one router per L_hop, and holds each directed
// link it crosses for `link_occupancy` (its serialization time). Link holds
// are reserved in departure order on a per-link Timeline, which adds
// queueing delay if a link is oversubscribed — at SCC scale it never is
// (paper §3.3), and tests assert both that property and that a
// deliberately oversubscribed link does queue.
//
// Multi-die topologies: a link crossing a die boundary is an interposer
// link; it pays the topology's extra latency on top of L_hop and extra
// serialization on top of link_occupancy. Per-link timing is precomputed
// at construction, so the reservation loop stays one Timeline op per link.
//
// Routes are walked from tile indices, X then Y, as they are booked; no
// route is stored, so mesh state is O(tiles) and traversals cost one event.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "noc/routing.h"
#include "noc/topology.h"
#include "sim/engine.h"
#include "sim/resource.h"

namespace ocb::noc {

class Mesh {
 public:
  Mesh(sim::Engine& engine, const Topology& topology, sim::Duration l_hop,
       sim::Duration link_occupancy);

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  /// Books one packet departing at `departure` from `src` to `dst` over
  /// the links of `xy_route_links(topology(), src, dst)`, in that order;
  /// returns its arrival time (>= departure + routers * L_hop
  /// + die crossings * interposer extra latency).
  sim::Time reserve_path(sim::Time departure, TileCoord src, TileCoord dst);

  /// Awaitable: the calling coroutine "is" the packet; it resumes at the
  /// destination's arrival time.
  auto traverse(TileCoord src, TileCoord dst) {
    struct Awaiter {
      Mesh* mesh;
      TileCoord src, dst;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim::Engine& e = *mesh->engine_;
        e.schedule(mesh->reserve_path(e.now(), src, dst), h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, src, dst};
  }

  sim::Duration l_hop() const { return l_hop_; }
  const Topology& topology() const { return topology_; }

  /// Total occupancy ever reserved on a directed link (for tests/reports):
  /// its packets times its fixed per-packet occupancy.
  sim::Duration link_total_occupancy(LinkId link) const;

  /// Packets that crossed a directed link.
  std::uint64_t link_packets(LinkId link) const;

 private:
  /// One directed link slot (tile * 4 + direction). Timing is l_hop /
  /// link_occupancy plus the interposer extras on die-boundary links,
  /// precomputed so the reservation loop is branch-free.
  struct Link {
    sim::Timeline timeline;
    sim::Duration latency = 0;
    sim::Duration occupancy = 0;
    std::uint64_t packets = 0;
  };

  sim::Engine* engine_;
  Topology topology_;
  sim::Duration l_hop_;
  std::vector<Link> links_;
};

}  // namespace ocb::noc
