// noc::Topology — first-class chip geometry.
//
// An immutable value describing the machine's floorplan: `cores_per_tile`
// cores on each tile, an N×M tile mesh per die, a grid of dies joined by
// interposer links (die-to-die hops pay an extra latency/serialization on
// top of the on-die L_hop), and per-die memory-controller placement. All
// coordinates are GLOBAL: a `dies_x × dies_y` chip of `tiles_x × tiles_y`
// dies is one `(dies_x·tiles_x) × (dies_y·tiles_y)` mesh whose links
// crossing a die boundary are interposer links — X-Y routing works
// unchanged, and a single-die topology has no interposer links at all.
//
// `Topology::scc()` reproduces the paper's SCC bit-identically: 24 tiles
// in 6×4, two cores per tile (cores 2t and 2t+1 on tile t), four DDR3
// controllers at routers (0,0), (5,0), (0,2), (5,2), each core served by
// the nearest controller (ties to the lowest controller index — exactly
// the classic quadrant assignment on this floorplan).
//
// Distance convention (paper §3.1) is unchanged: the model's d counts
// ROUTERS traversed, so d = Manhattan distance + 1, and accessing the
// local MPB still goes through the local router (d = 1).
//
// Hot-path accessors (tile_of_core, mc_index_for_core, mem_distance) are
// table lookups precomputed at construction, so a chip built from any
// topology pays the same per-event geometry cost as the old global
// constants did.
//
// Serialization: to_json()/from_json() round-trip the "ocb-topology-v1"
// record; parse() accepts the bench-flag spellings "scc", "mesh:16x16",
// and "dies:2x2:mesh:8x8".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/require.h"
#include "common/types.h"
#include "sim/time.h"

namespace ocb::noc {

/// Coordinates of a tile (= its router) on the global mesh.
struct TileCoord {
  int x = 0;  ///< column, 0..mesh_cols()-1
  int y = 0;  ///< row, 0..mesh_rows()-1

  friend bool operator==(const TileCoord&, const TileCoord&) = default;
};

class Topology {
 public:
  /// Construction-time description. `mc_tiles_per_die` are DIE-LOCAL
  /// coordinates, replicated into every die; empty selects the default
  /// corner placement {(0,0), (tx-1,0), (0,ty/2), (tx-1,ty/2)} (deduped),
  /// which reproduces the SCC's four controllers on a 6×4 die.
  struct Spec {
    int cores_per_tile = 2;
    int tiles_x = 6;  ///< tile columns per die
    int tiles_y = 4;  ///< tile rows per die
    int dies_x = 1;   ///< die grid columns
    int dies_y = 1;   ///< die grid rows
    /// Extra per-hop latency a packet pays when a link crosses a die
    /// boundary (added to the mesh's L_hop for that hop only).
    sim::Duration interposer_extra_latency = 0;
    /// Extra serialization (link occupancy) on die-boundary links.
    sim::Duration interposer_extra_occupancy = 0;
    std::vector<TileCoord> mc_tiles_per_die{};
  };

  /// The paper's SCC: 6×4 tiles, 2 cores/tile, one die, 4 corner MCs.
  static const Topology& scc();

  /// Single-die N×M mesh with default corner MC placement.
  static Topology mesh(int tiles_x, int tiles_y, int cores_per_tile = 2);

  /// Multi-die chip: a dies_x×dies_y grid of tiles_x×tiles_y dies with
  /// per-die corner MCs. Default interposer numbers model a die-to-die
  /// hop ~5× slower than an on-die hop (20 ns extra latency, 5 ns extra
  /// serialization on the SCC's 5 ns / 2.5 ns links) — in the spirit of
  /// chiplet interposers whose D2D links lag on-die wires.
  static Topology multi_die(int dies_x, int dies_y, int tiles_x, int tiles_y,
                            int cores_per_tile = 2,
                            sim::Duration interposer_extra_latency =
                                20 * sim::kNanosecond,
                            sim::Duration interposer_extra_occupancy =
                                5 * sim::kNanosecond);

  /// Bench-flag spellings: "scc" | "mesh:<cols>x<rows>" |
  /// "dies:<dx>x<dy>:mesh:<cols>x<rows>". Throws PreconditionError on
  /// anything else.
  static Topology parse(const std::string& spec);

  explicit Topology(const Spec& spec);

  // --- sizes --------------------------------------------------------------
  int cores_per_tile() const { return spec_.cores_per_tile; }
  int tiles_x_per_die() const { return spec_.tiles_x; }
  int tiles_y_per_die() const { return spec_.tiles_y; }
  int dies_x() const { return spec_.dies_x; }
  int dies_y() const { return spec_.dies_y; }
  int num_dies() const { return spec_.dies_x * spec_.dies_y; }
  int mesh_cols() const { return mesh_cols_; }
  int mesh_rows() const { return mesh_rows_; }
  int num_tiles() const { return num_tiles_; }
  int num_cores() const { return num_cores_; }

  // --- validation ---------------------------------------------------------
  void require_core(CoreId c) const {
    OCB_REQUIRE(c >= 0 && c < num_cores_, "core id out of range");
  }
  void require_tile(int tile_index) const {
    OCB_REQUIRE(tile_index >= 0 && tile_index < num_tiles_,
                "tile index out of range");
  }

  // --- tile/core geometry (row-major over the global mesh) ----------------
  int tile_index(TileCoord t) const {
    OCB_REQUIRE(t.x >= 0 && t.x < mesh_cols_ && t.y >= 0 && t.y < mesh_rows_,
                "tile coordinate out of range");
    return t.y * mesh_cols_ + t.x;
  }
  TileCoord tile_coord(int index) const {
    require_tile(index);
    return TileCoord{index % mesh_cols_, index / mesh_cols_};
  }
  TileCoord tile_of_core(CoreId core) const {
    require_core(core);
    return core_tiles_[static_cast<std::size_t>(core)];
  }
  int tile_index_of_core(CoreId core) const {
    require_core(core);
    return core / spec_.cores_per_tile;
  }
  CoreId first_core_of_tile(int tile_index) const {
    require_tile(tile_index);
    return tile_index * spec_.cores_per_tile;
  }

  /// Manhattan distance between two tiles (topology-independent).
  static int manhattan(TileCoord a, TileCoord b) {
    const int dx = a.x - b.x;
    const int dy = a.y - b.y;
    return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
  }

  /// Routers traversed by a packet from `a` to `b` (the model's d): one
  /// router per tile on the X-Y path including source and destination, so
  /// manhattan(a, b) + 1 (and 1 for a == b).
  static int routers_traversed(TileCoord a, TileCoord b) {
    return manhattan(a, b) + 1;
  }

  // --- dies ---------------------------------------------------------------
  int die_x_of(TileCoord t) const { return t.x / spec_.tiles_x; }
  int die_y_of(TileCoord t) const { return t.y / spec_.tiles_y; }
  int die_of_tile(TileCoord t) const {
    return die_y_of(t) * spec_.dies_x + die_x_of(t);
  }
  int die_of_core(CoreId core) const { return die_of_tile(tile_of_core(core)); }
  bool same_die(TileCoord a, TileCoord b) const {
    return die_x_of(a) == die_x_of(b) && die_y_of(a) == die_y_of(b);
  }
  /// Die boundaries an X-Y-routed packet from `a` to `b` crosses. X-Y
  /// routes are dimension-monotone, so this is exact, not a bound.
  int die_crossings(TileCoord a, TileCoord b) const {
    const int dx = die_x_of(a) - die_x_of(b);
    const int dy = die_y_of(a) - die_y_of(b);
    return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy);
  }
  /// True when the (adjacent-tile) link from->to is an interposer link.
  bool link_crosses_die(TileCoord from, TileCoord to) const {
    return !same_die(from, to);
  }
  /// Core ids of one die, ascending (they are NOT globally contiguous on
  /// multi-die chips: tile indices are row-major over the whole mesh).
  std::vector<CoreId> cores_of_die(int die) const;
  /// Lowest core id on a die (the hierarchical broadcast's die leader).
  CoreId die_leader(int die) const;

  sim::Duration interposer_extra_latency() const {
    return spec_.interposer_extra_latency;
  }
  sim::Duration interposer_extra_occupancy() const {
    return spec_.interposer_extra_occupancy;
  }

  // --- memory controllers -------------------------------------------------
  int num_memory_controllers() const {
    return static_cast<int>(mc_tiles_.size());
  }
  TileCoord mc_tile(int mc_index) const {
    OCB_REQUIRE(mc_index >= 0 &&
                    mc_index < static_cast<int>(mc_tiles_.size()),
                "memory controller index out of range");
    return mc_tiles_[static_cast<std::size_t>(mc_index)];
  }
  /// Controller serving a core's private memory: the nearest of ITS DIE's
  /// controllers, ties to the lowest index (per-die memory — a core never
  /// crosses an interposer to reach DRAM).
  int mc_index_for_core(CoreId core) const {
    require_core(core);
    return core_mc_[static_cast<std::size_t>(core)];
  }
  TileCoord mc_tile_for_core(CoreId core) const {
    return mc_tiles_[static_cast<std::size_t>(mc_index_for_core(core))];
  }
  /// Routers between a core's tile and its controller (d for off-chip).
  int mem_distance(CoreId core) const {
    require_core(core);
    return core_mem_distance_[static_cast<std::size_t>(core)];
  }

  // --- links (directed edges between adjacent routers) --------------------
  int num_link_slots() const { return num_tiles_ * 4; }

  // --- identity / serialization -------------------------------------------
  const Spec& spec() const { return spec_; }
  friend bool operator==(const Topology& a, const Topology& b) {
    return a.spec_.cores_per_tile == b.spec_.cores_per_tile &&
           a.spec_.tiles_x == b.spec_.tiles_x &&
           a.spec_.tiles_y == b.spec_.tiles_y &&
           a.spec_.dies_x == b.spec_.dies_x &&
           a.spec_.dies_y == b.spec_.dies_y &&
           a.spec_.interposer_extra_latency ==
               b.spec_.interposer_extra_latency &&
           a.spec_.interposer_extra_occupancy ==
               b.spec_.interposer_extra_occupancy &&
           a.mc_die_tiles_ == b.mc_die_tiles_;
  }

  /// Short human-readable identity: "scc", "mesh:16x16",
  /// "dies:2x2:mesh:8x8" (with a "+mc"/"+ixp" suffix when the MC layout
  /// or interposer numbers are non-default).
  std::string describe() const;

  /// Versioned record ("ocb-topology-v1"); from_json parses exactly what
  /// to_json emits (durations in picoseconds, mc tiles die-local).
  std::string to_json() const;
  static Topology from_json(const std::string& json);

 private:
  Spec spec_;
  int mesh_cols_ = 0;
  int mesh_rows_ = 0;
  int num_tiles_ = 0;
  int num_cores_ = 0;
  std::vector<TileCoord> mc_die_tiles_;  ///< die-local, as configured
  std::vector<TileCoord> mc_tiles_;      ///< global, die-major order
  // Precomputed per-core tables (hot-path geometry = one indexed load).
  std::vector<TileCoord> core_tiles_;
  std::vector<int> core_mc_;
  std::vector<int> core_mem_distance_;
};

}  // namespace ocb::noc
