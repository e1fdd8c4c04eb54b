// noc::Topology — the geometry API behind every chip (DESIGN.md §14).
//
// Four contracts are gated here:
//  * Topology::scc() reproduces the legacy global-constant geometry
//    bit-for-bit: tile/core maps, the quadrant memory-controller
//    assignment, and distances. (The timeline-level half of this gate —
//    fig4 / fault_test / trace_timeline byte-identity — runs in CI against
//    captured baselines.)
//  * Non-default meshes validate: out-of-range cores/tiles are rejected
//    with the chip's own bounds, not the SCC's.
//  * The "ocb-topology-v1" JSON record round-trips, and parse() accepts
//    the bench-flag spellings.
//  * Chips built from non-SCC topologies actually run: OC-Bcast delivers
//    on a 16x16 mesh, every builtin that accepts 50 cores delivers on a 5x5
//    mesh (not 6 columns wide), and the hierarchical broadcast delivers on
//    a multi-die chip for roots on any die.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coll/registry.h"
#include "common/require.h"
#include "harness/measurement.h"
#include "noc/geometry.h"
#include "noc/memctrl.h"
#include "noc/topology.h"
#include "scc/chip.h"

namespace ocb {
namespace {

using noc::TileCoord;
using noc::Topology;

// --- Topology::scc() equivalence -------------------------------------------

TEST(TopologyScc, ReproducesLegacyConstants) {
  const Topology& t = Topology::scc();
  EXPECT_EQ(t.num_cores(), kNumCores);
  EXPECT_EQ(t.num_tiles(), kNumTiles);
  EXPECT_EQ(t.mesh_cols(), kMeshCols);
  EXPECT_EQ(t.mesh_rows(), kMeshRows);
  EXPECT_EQ(t.cores_per_tile(), 2);
  EXPECT_EQ(t.num_dies(), 1);
  EXPECT_EQ(t.num_memory_controllers(), noc::kNumMemoryControllers);
  for (CoreId c = 0; c < kNumCores; ++c) {
    // Legacy layout: cores 2t, 2t+1 on tile t; tiles row-major on 6x4.
    EXPECT_EQ(t.tile_index_of_core(c), c / 2);
    EXPECT_EQ(t.tile_of_core(c), (TileCoord{(c / 2) % 6, (c / 2) / 6}));
    // Legacy quadrant MC assignment: left/right half x bottom/top half.
    const TileCoord tile = t.tile_of_core(c);
    const int quadrant = (tile.x >= 3 ? 1 : 0) + (tile.y >= 2 ? 2 : 0);
    EXPECT_EQ(t.mc_index_for_core(c), quadrant) << "core " << c;
    EXPECT_EQ(t.mem_distance(c),
              Topology::manhattan(tile, t.mc_tile_for_core(c)) + 1);
  }
  const TileCoord mc_tiles[] = {{0, 0}, {5, 0}, {0, 2}, {5, 2}};
  for (int m = 0; m < 4; ++m) EXPECT_EQ(t.mc_tile(m), mc_tiles[m]);
  EXPECT_EQ(t.describe(), "scc");
}

TEST(TopologyScc, GeometryShimsForwardToScc) {
  // The legacy free helpers must stay exact aliases of Topology::scc().
  for (CoreId c = 0; c < kNumCores; ++c) {
    EXPECT_EQ(noc::tile_of_core(c), Topology::scc().tile_of_core(c));
    EXPECT_EQ(noc::mc_index_for_core(c), Topology::scc().mc_index_for_core(c));
    EXPECT_EQ(noc::mem_distance(c), Topology::scc().mem_distance(c));
  }
}

// --- non-default meshes ----------------------------------------------------

TEST(TopologyMesh, OutOfRangeUsesTheChipsOwnBounds) {
  const Topology t = Topology::mesh(16, 16);  // 256 tiles, 512 cores
  EXPECT_EQ(t.num_cores(), 512);
  EXPECT_NO_THROW(t.require_core(511));
  EXPECT_THROW(t.require_core(512), PreconditionError);
  EXPECT_THROW(t.require_core(-1), PreconditionError);
  EXPECT_NO_THROW(t.require_tile(255));
  EXPECT_THROW(t.require_tile(256), PreconditionError);
  EXPECT_THROW(t.tile_index(TileCoord{16, 0}), PreconditionError);

  const Topology small = Topology::mesh(2, 2, /*cores_per_tile=*/1);
  EXPECT_EQ(small.num_cores(), 4);
  EXPECT_THROW(small.require_core(4), PreconditionError);
  EXPECT_THROW(small.tile_of_core(4), PreconditionError);
}

TEST(TopologyMesh, RejectsDegenerateSpecs) {
  Topology::Spec zero_tiles;
  zero_tiles.tiles_x = 0;
  EXPECT_THROW(Topology{zero_tiles}, PreconditionError);
  Topology::Spec zero_cores;
  zero_cores.cores_per_tile = 0;
  EXPECT_THROW(Topology{zero_cores}, PreconditionError);
  Topology::Spec bad_mc;
  bad_mc.mc_tiles_per_die = {TileCoord{6, 0}};  // outside the 6x4 die
  EXPECT_THROW(Topology{bad_mc}, PreconditionError);
}

// --- dies ------------------------------------------------------------------

TEST(TopologyDies, GlobalMeshAndCrossings) {
  // 2x2 dies of 3x2 tiles: global mesh 6x4, 48 cores — SCC-sized but
  // carved into four dies.
  const Topology t = Topology::multi_die(2, 2, 3, 2);
  EXPECT_EQ(t.num_dies(), 4);
  EXPECT_EQ(t.mesh_cols(), 6);
  EXPECT_EQ(t.mesh_rows(), 4);
  EXPECT_EQ(t.num_cores(), 48);
  EXPECT_EQ(t.die_of_tile(TileCoord{0, 0}), 0);
  EXPECT_EQ(t.die_of_tile(TileCoord{3, 0}), 1);
  EXPECT_EQ(t.die_of_tile(TileCoord{0, 2}), 2);
  EXPECT_EQ(t.die_of_tile(TileCoord{5, 3}), 3);
  EXPECT_TRUE(t.link_crosses_die(TileCoord{2, 0}, TileCoord{3, 0}));
  EXPECT_FALSE(t.link_crosses_die(TileCoord{1, 0}, TileCoord{2, 0}));
  EXPECT_EQ(t.die_crossings(TileCoord{0, 0}, TileCoord{5, 3}), 2);
  EXPECT_EQ(t.die_crossings(TileCoord{1, 1}, TileCoord{2, 1}), 0);
  // Every core belongs to exactly one die; members are ascending and
  // leaders are their minima.
  std::vector<CoreId> seen;
  for (int d = 0; d < t.num_dies(); ++d) {
    const std::vector<CoreId> members = t.cores_of_die(d);
    ASSERT_FALSE(members.empty());
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    EXPECT_EQ(t.die_leader(d), members.front());
    for (CoreId c : members) {
      EXPECT_EQ(t.die_of_core(c), d);
      seen.push_back(c);
    }
  }
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(static_cast<int>(seen.size()), t.num_cores());
  for (CoreId c = 0; c < t.num_cores(); ++c) EXPECT_EQ(seen[c], c);
}

// --- serialization ---------------------------------------------------------

TEST(TopologyJson, RoundTripsEveryShape) {
  const Topology shapes[] = {
      Topology::scc(), Topology::mesh(16, 16), Topology::mesh(3, 1, 1),
      Topology::multi_die(2, 2, 8, 8), Topology::multi_die(1, 4, 6, 4, 4)};
  for (const Topology& t : shapes) {
    SCOPED_TRACE(t.describe());
    const std::string json = t.to_json();
    EXPECT_NE(json.find("ocb-topology-v1"), std::string::npos);
    const Topology back = Topology::from_json(json);
    EXPECT_EQ(back, t);
    EXPECT_EQ(back.describe(), t.describe());
    EXPECT_EQ(back.to_json(), json);
  }
}

TEST(TopologyJson, RejectsWrongSchema) {
  EXPECT_THROW(Topology::from_json("{}"), PreconditionError);
  EXPECT_THROW(Topology::from_json("{\"schema\":\"ocb-topology-v2\"}"),
               PreconditionError);
}

TEST(TopologyParse, BenchFlagSpellings) {
  EXPECT_EQ(Topology::parse("scc"), Topology::scc());
  EXPECT_EQ(Topology::parse("mesh:16x16"), Topology::mesh(16, 16));
  EXPECT_EQ(Topology::parse("dies:2x2:mesh:8x8"),
            Topology::multi_die(2, 2, 8, 8));
  EXPECT_THROW(Topology::parse(""), PreconditionError);
  EXPECT_THROW(Topology::parse("mesh:16"), PreconditionError);
  EXPECT_THROW(Topology::parse("torus:4x4"), PreconditionError);
}

TEST(TopologyParse, RejectsSizesBeyondInt) {
  // Truncated to int, 4294967302 (2^32 + 6) would read as the SCC's 6
  // columns and 4294967298 (2^32 + 2) as 2 dies.
  EXPECT_THROW(Topology::parse("mesh:4294967302x4"), PreconditionError);
  EXPECT_THROW(Topology::parse("dies:4294967298x1:mesh:3x3"),
               PreconditionError);
  EXPECT_THROW(Topology::parse("mesh:99999999999999999999x4"),
               PreconditionError);
  // Each factor fits, the 10^10 tiles do not.
  EXPECT_THROW(Topology::parse("mesh:100000x100000"), PreconditionError);
  EXPECT_THROW(Topology::mesh(46341, 46341), PreconditionError);  // tiles
  EXPECT_THROW(Topology::mesh(16384, 16384, 8), PreconditionError);  // cores
  std::string json = Topology::scc().to_json();
  json.replace(json.find("\"tiles_x\":6"), 11, "\"tiles_x\":4294967302");
  EXPECT_THROW(Topology::from_json(json), PreconditionError);
}

// --- chips on non-SCC topologies ------------------------------------------

void seed(scc::SccChip& chip, CoreId core, std::size_t bytes) {
  auto w = chip.memory(core).host_bytes(0, bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    w[i] = static_cast<std::byte>((i * 131 + 17 + (i >> 7)) & 0xff);
  }
}

/// Runs one `bcast` round from `root` over every core of `chip`; true when
/// the run completes and every core holds the root's bytes.
bool delivers(scc::SccChip& chip, coll::Collective& bcast, CoreId root,
              std::size_t bytes) {
  const int cores = chip.num_cores();
  seed(chip, root, bytes);
  for (CoreId c = 0; c < cores; ++c) {
    chip.spawn(c, [&bcast, root, bytes](scc::Core& me) -> sim::Task<void> {
      co_await bcast.run(me, root, 0, bytes);
    });
  }
  if (!chip.run().completed()) return false;
  const auto want = chip.memory(root).host_bytes(0, bytes);
  for (CoreId c = 0; c < cores; ++c) {
    if (c == root) continue;
    const auto got = chip.memory(c).host_bytes(0, bytes);
    if (!std::equal(want.begin(), want.end(), got.begin())) return false;
  }
  return true;
}

harness::BcastRunResult run_on_mesh(const std::string& algo,
                                    const Topology& topo) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = algo;
  spec.params.parties = 0;  // all cores of the chip
  spec.config.topology = topo;
  spec.message_bytes = 64 * kCacheLineBytes;
  spec.iterations = 2;
  spec.warmup = 1;
  return harness::run_broadcast(spec);
}

TEST(TopologyChips, OcBcastDeliversOn256CoreMesh) {
  const Topology t = Topology::mesh(16, 16, /*cores_per_tile=*/1);
  const harness::BcastRunResult run = run_on_mesh("ocbcast", t);
  EXPECT_TRUE(run.content_ok);
  EXPECT_GT(run.latency_us.mean(), 0.0);
}

TEST(TopologyChips, EveryBuiltinResolvesAllCoresOnNonSixColumnMesh) {
  // A 5x5 mesh: 25 tiles, no 6-column rows anywhere in the floorplan.
  // parties = 0 means "all 50 cores" for every builtin; one that cannot
  // run on 50 cores must refuse with a PreconditionError, not misbehave.
  scc::SccConfig cfg;
  cfg.topology = Topology::mesh(5, 5);
  std::vector<std::string> refused;
  for (const std::string& name : coll::names()) {
    scc::SccChip chip(cfg);
    std::unique_ptr<coll::Collective> bcast;
    try {
      bcast = coll::make(name, chip, {.parties = 0});
    } catch (const PreconditionError&) {
      refused.push_back(name);
      continue;
    }
    EXPECT_EQ(bcast->parties(), 50) << name;
    EXPECT_TRUE(delivers(chip, *bcast, /*root=*/7, 64 * kCacheLineBytes))
        << name;
  }
  // "adaptive": its baked-in decision table is tuned for (and bounded at)
  // the SCC's 48 cores.
  EXPECT_EQ(refused, std::vector<std::string>{"adaptive"});
}

// --- hierarchical broadcast ------------------------------------------------

bool hier_delivers(const Topology& topo, CoreId root, std::size_t bytes,
                   int die_k = 4) {
  scc::SccConfig cfg;
  cfg.topology = topo;
  scc::SccChip chip(cfg);
  const auto bcast =
      coll::make("hier-ocbcast", chip, {.parties = 0, .die_k = die_k});
  return delivers(chip, *bcast, root, bytes);
}

TEST(HierBcast, DeliversOnMultiDieForRootsOnEveryDie) {
  const Topology t = Topology::multi_die(2, 2, 3, 2);
  for (int d = 0; d < t.num_dies(); ++d) {
    const CoreId root = t.cores_of_die(d).back();  // non-leader roots too
    EXPECT_TRUE(hier_delivers(t, root, 5000)) << "root " << root;
    EXPECT_TRUE(hier_delivers(t, t.die_leader(d), 96 * 32))
        << "leader root, die " << d;
  }
}

TEST(HierBcast, DegradesToSingleDieAndMultiChunk) {
  EXPECT_TRUE(hier_delivers(Topology::scc(), 0, 300 * 32));
  EXPECT_TRUE(hier_delivers(Topology::multi_die(2, 1, 3, 4), 7, 1000 * 32,
                            /*die_k=*/1));
}

TEST(HierBcast, RegistryFactoryHonorsTopology) {
  scc::SccConfig cfg;
  cfg.topology = Topology::multi_die(2, 1, 3, 4);
  scc::SccChip chip(cfg);
  coll::Params params;
  params.parties = 0;
  auto coll = coll::make("hier-ocbcast", chip, params);
  EXPECT_EQ(coll->parties(), cfg.topology.num_cores());
  EXPECT_NE(coll->name().find("hier-ocbcast"), std::string::npos);
}

}  // namespace
}  // namespace ocb
