// Deterministic X-Y routing (the SCC NoC's dimension-ordered scheme).
//
// A route is the ordered list of routers a packet visits: first along the X
// dimension to the destination column, then along Y to the destination row.
// Links are the directed edges between adjacent routers; they are the unit
// at which the mesh model accounts occupancy.
//
// Routing is dimension-ordered on the GLOBAL mesh, so it is identical for
// single- and multi-die topologies — a link that happens to cross a die
// boundary is still just a directed edge; only its timing differs (the mesh
// model adds the topology's interposer extras for such links).
#pragma once

#include <cstdint>
#include <vector>

#include "noc/topology.h"

namespace ocb::noc {

/// Direction of a mesh link leaving a router.
enum class Direction : std::uint8_t { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };

/// Identifier of a directed link: source router index * 4 + direction.
using LinkId = int;

/// Directed link from `from` towards `dir` on `topo`'s mesh. The
/// neighbouring router must exist (checked).
LinkId link_id(const Topology& topo, TileCoord from, Direction dir);

/// Router sequence of the X-Y route from `src` to `dst` (inclusive of both;
/// a single-element route when src == dst). Route shape is
/// topology-independent; bounds are checked against `topo`.
std::vector<TileCoord> xy_route(const Topology& topo, TileCoord src,
                                TileCoord dst);

/// Directed links of the X-Y route, in traversal order (empty when
/// src == dst). `Mesh::reserve_path` walks the same links without building
/// this list; this is the reference its tests compare against.
std::vector<LinkId> xy_route_links(const Topology& topo, TileCoord src,
                                   TileCoord dst);

/// True if the route from src to dst traverses the directed link
/// from->towards (adjacent tiles). Used by the §3.3 mesh-stress experiment
/// to pick flows through a chosen link.
bool route_uses_link(const Topology& topo, TileCoord src, TileCoord dst,
                     TileCoord from, TileCoord towards);

}  // namespace ocb::noc
