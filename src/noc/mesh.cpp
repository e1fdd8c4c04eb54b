#include "noc/mesh.h"

namespace ocb::noc {

namespace {

TileCoord neighbour(TileCoord t, Direction dir) {
  switch (dir) {
    case Direction::kEast:
      return TileCoord{t.x + 1, t.y};
    case Direction::kWest:
      return TileCoord{t.x - 1, t.y};
    case Direction::kSouth:
      return TileCoord{t.x, t.y + 1};
    case Direction::kNorth:
      return TileCoord{t.x, t.y - 1};
  }
  return t;  // unreachable
}

}  // namespace

Mesh::Mesh(sim::Engine& engine, const Topology& topology, sim::Duration l_hop,
           sim::Duration link_occupancy)
    : engine_(&engine), topology_(topology), l_hop_(l_hop) {
  OCB_REQUIRE(l_hop > 0, "L_hop must be positive");
  OCB_REQUIRE(link_occupancy <= l_hop,
              "link occupancy above L_hop breaks the cut-through pipeline model");
  if (topology_.num_dies() > 1) {
    OCB_REQUIRE(link_occupancy + topology_.interposer_extra_occupancy() <=
                    l_hop + topology_.interposer_extra_latency(),
                "interposer occupancy above interposer hop latency breaks the "
                "cut-through pipeline model");
  }
  links_.resize(static_cast<std::size_t>(topology_.num_link_slots()));
  for (int t = 0; t < topology_.num_tiles(); ++t) {
    const TileCoord from = topology_.tile_coord(t);
    for (int d = 0; d < 4; ++d) {
      Link& link = links_[static_cast<std::size_t>(t * 4 + d)];
      link.latency = l_hop_;
      link.occupancy = link_occupancy;
      const TileCoord to = neighbour(from, static_cast<Direction>(d));
      if (to.x < 0 || to.x >= topology_.mesh_cols() || to.y < 0 ||
          to.y >= topology_.mesh_rows()) {
        continue;  // edge of the mesh; slot never used
      }
      if (topology_.link_crosses_die(from, to)) {
        link.latency += topology_.interposer_extra_latency();
        link.occupancy += topology_.interposer_extra_occupancy();
      }
    }
  }
}

sim::Time Mesh::reserve_path(sim::Time departure, TileCoord src, TileCoord dst) {
  int tile = topology_.tile_index(src);
  topology_.tile_index(dst);  // bounds check
  const int cols = topology_.mesh_cols();
  // The packet spends L_hop in the source router, then one hop latency per
  // link crossed (each subsequent router; interposer links are slower),
  // holding every link for its serialization time starting when the head
  // flit enters it.
  sim::Time cursor = departure;
  const auto cross = [&](Direction dir) {
    Link& link = links_[static_cast<std::size_t>(tile * 4 + static_cast<int>(dir))];
    const sim::Time done = link.timeline.reserve(cursor, link.occupancy);
    const sim::Time start = done - link.occupancy;
    ++link.packets;
    cursor = start + link.latency;
  };
  // X first, then Y (xy_route_links' order); `tile` is the router the
  // packet leaves by each link.
  for (; src.x < dst.x; ++src.x, ++tile) cross(Direction::kEast);
  for (; src.x > dst.x; --src.x, --tile) cross(Direction::kWest);
  for (; src.y < dst.y; ++src.y, tile += cols) cross(Direction::kSouth);
  for (; src.y > dst.y; --src.y, tile -= cols) cross(Direction::kNorth);
  // Final (destination) router traversal; for src == dst this is the single
  // local-router hop (d = 1).
  return cursor + l_hop_;
}

sim::Duration Mesh::link_total_occupancy(LinkId link) const {
  OCB_REQUIRE(link >= 0 && link < topology_.num_link_slots(),
              "link id out of range");
  const Link& l = links_[static_cast<std::size_t>(link)];
  return l.packets * l.occupancy;
}

std::uint64_t Mesh::link_packets(LinkId link) const {
  OCB_REQUIRE(link >= 0 && link < topology_.num_link_slots(),
              "link id out of range");
  return links_[static_cast<std::size_t>(link)].packets;
}

}  // namespace ocb::noc
