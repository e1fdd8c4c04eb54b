// Unit and property tests for the NoC on the paper's SCC floorplan
// (noc::Topology::scc()): geometry, X-Y routing, mesh timing,
// memory-controller placement.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "noc/mesh.h"
#include "noc/routing.h"
#include "noc/topology.h"
#include "sim/engine.h"

namespace ocb::noc {
namespace {

const Topology& scc() { return Topology::scc(); }

TEST(Geometry, TileIndexRoundTrip) {
  for (int i = 0; i < scc().num_tiles(); ++i) {
    EXPECT_EQ(scc().tile_index(scc().tile_coord(i)), i);
  }
  EXPECT_EQ(scc().tile_index(TileCoord{0, 0}), 0);
  EXPECT_EQ(scc().tile_index(TileCoord{5, 0}), 5);
  EXPECT_EQ(scc().tile_index(TileCoord{0, 1}), 6);
  EXPECT_EQ(scc().tile_index(TileCoord{5, 3}), 23);
}

TEST(Geometry, CoresPairPerTile) {
  for (CoreId c = 0; c < kNumCores; ++c) {
    EXPECT_EQ(scc().tile_index_of_core(c), c / 2);
  }
  EXPECT_EQ(scc().first_core_of_tile(0), 0);
  EXPECT_EQ(scc().first_core_of_tile(23), 46);
  EXPECT_EQ(scc().tile_of_core(0), (TileCoord{0, 0}));
  EXPECT_EQ(scc().tile_of_core(47), (TileCoord{5, 3}));
}

TEST(Geometry, BoundsChecked) {
  EXPECT_THROW(scc().tile_index(TileCoord{6, 0}), PreconditionError);
  EXPECT_THROW(scc().tile_index(TileCoord{0, 4}), PreconditionError);
  EXPECT_THROW(scc().tile_coord(24), PreconditionError);
  EXPECT_THROW(scc().tile_of_core(48), PreconditionError);
  EXPECT_THROW(scc().tile_of_core(-1), PreconditionError);
}

TEST(Geometry, RoutersTraversedIsManhattanPlusOne) {
  EXPECT_EQ(Topology::routers_traversed(TileCoord{0, 0}, TileCoord{0, 0}), 1);
  EXPECT_EQ(Topology::routers_traversed(TileCoord{0, 0}, TileCoord{5, 3}), 9);
  EXPECT_EQ(Topology::routers_traversed(TileCoord{2, 2}, TileCoord{3, 2}), 2);
}

TEST(Geometry, MaxDistanceOnMeshIsNine) {
  int max_d = 0;
  for (int a = 0; a < scc().num_tiles(); ++a) {
    for (int b = 0; b < scc().num_tiles(); ++b) {
      max_d = std::max(max_d, Topology::routers_traversed(scc().tile_coord(a),
                                                          scc().tile_coord(b)));
    }
  }
  EXPECT_EQ(max_d, 9) << "the paper's Figure 3 spans 1..9 hops";
}

// Property: every route is a valid X-then-Y path of the right length.
class XyRouteProperty : public ::testing::TestWithParam<int> {};

TEST_P(XyRouteProperty, RouteShape) {
  const TileCoord src = scc().tile_coord(GetParam() / scc().num_tiles());
  const TileCoord dst = scc().tile_coord(GetParam() % scc().num_tiles());
  const auto route = xy_route(scc(), src, dst);
  ASSERT_EQ(static_cast<int>(route.size()), Topology::manhattan(src, dst) + 1);
  EXPECT_EQ(route.front(), src);
  EXPECT_EQ(route.back(), dst);
  bool seen_y_move = false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    EXPECT_EQ(Topology::manhattan(route[i], route[i + 1]), 1)
        << "adjacent steps only";
    const bool x_move = route[i].x != route[i + 1].x;
    if (x_move) {
      EXPECT_FALSE(seen_y_move) << "X-Y routing: all X steps before any Y step";
    } else {
      seen_y_move = true;
    }
  }
  const auto links = xy_route_links(scc(), src, dst);
  EXPECT_EQ(links.size(), route.size() - 1);
  for (LinkId l : links) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, scc().num_link_slots());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTilePairs, XyRouteProperty,
    ::testing::Range(0, scc().num_tiles() * scc().num_tiles()));

TEST(Routing, LinkIdsUniquePerDirectedEdge) {
  EXPECT_NE(link_id(scc(), TileCoord{2, 2}, Direction::kEast),
            link_id(scc(), TileCoord{3, 2}, Direction::kWest));
  EXPECT_THROW(link_id(scc(), TileCoord{5, 0}, Direction::kEast),
               PreconditionError);
  EXPECT_THROW(link_id(scc(), TileCoord{0, 0}, Direction::kWest),
               PreconditionError);
  EXPECT_THROW(link_id(scc(), TileCoord{0, 0}, Direction::kNorth),
               PreconditionError);
  EXPECT_THROW(link_id(scc(), TileCoord{0, 3}, Direction::kSouth),
               PreconditionError);
}

TEST(Routing, RouteUsesLinkMatchesPaperStressPattern) {
  // §3.3: a get by (5,1) from (0,2) moves data (0,2) -> (5,1); X-first
  // routing crosses (2,2)->(3,2).
  EXPECT_TRUE(route_uses_link(scc(), TileCoord{0, 2}, TileCoord{5, 1},
                              TileCoord{2, 2}, TileCoord{3, 2}));
  // The reverse direction uses the opposite link.
  EXPECT_FALSE(route_uses_link(scc(), TileCoord{5, 2}, TileCoord{0, 1},
                               TileCoord{2, 2}, TileCoord{3, 2}));
  EXPECT_TRUE(route_uses_link(scc(), TileCoord{5, 2}, TileCoord{0, 1},
                              TileCoord{3, 2}, TileCoord{2, 2}));
  EXPECT_THROW(route_uses_link(scc(), TileCoord{0, 0}, TileCoord{1, 0},
                               TileCoord{0, 0}, TileCoord{2, 0}),
               PreconditionError);
}

TEST(Mesh, UncontendedLatencyIsRoutersTimesLhop) {
  sim::Engine e;
  Mesh mesh(e, Topology::scc(), /*l_hop=*/5000, /*link_occupancy=*/2500);
  // Space departures far enough apart that earlier packets cannot congest
  // later ones (each holds a link for only 2.5 us total here).
  sim::Time depart = 0;
  for (int a = 0; a < scc().num_tiles(); ++a) {
    for (int b = 0; b < scc().num_tiles(); ++b) {
      depart += 1'000'000;
      const TileCoord src = scc().tile_coord(a);
      const TileCoord dst = scc().tile_coord(b);
      const sim::Time arrival = mesh.reserve_path(depart, src, dst);
      EXPECT_EQ(arrival, depart + 5000u * static_cast<sim::Time>(
                                      Topology::routers_traversed(src, dst)));
    }
  }
}

TEST(Mesh, OversubscribedLinkQueues) {
  sim::Engine e;
  Mesh mesh(e, Topology::scc(), 5000, 2500);
  // Two packets enter the same link at the same instant: the second is
  // delayed by the first's serialization time.
  const sim::Time a = mesh.reserve_path(0, TileCoord{0, 0}, TileCoord{1, 0});
  const sim::Time b = mesh.reserve_path(0, TileCoord{0, 0}, TileCoord{1, 0});
  EXPECT_EQ(a, 10000u);
  EXPECT_EQ(b, 12500u);
}

TEST(Mesh, DisjointLinksDoNotInteract) {
  sim::Engine e;
  Mesh mesh(e, Topology::scc(), 5000, 2500);
  mesh.reserve_path(0, TileCoord{0, 0}, TileCoord{1, 0});
  const sim::Time b = mesh.reserve_path(0, TileCoord{0, 1}, TileCoord{1, 1});
  EXPECT_EQ(b, 10000u);
}

TEST(Mesh, LinkStatsCount) {
  sim::Engine e;
  Mesh mesh(e, Topology::scc(), 5000, 2500);
  const LinkId east00 = link_id(scc(), TileCoord{0, 0}, Direction::kEast);
  EXPECT_EQ(mesh.link_packets(east00), 0u);
  mesh.reserve_path(0, TileCoord{0, 0}, TileCoord{2, 0});
  EXPECT_EQ(mesh.link_packets(east00), 1u);
  EXPECT_EQ(mesh.link_total_occupancy(east00), 2500u);
}

TEST(Mesh, TraverseAwaitableAdvancesClock) {
  sim::Engine e;
  Mesh mesh(e, Topology::scc(), 5000, 2500);
  sim::Time done = 0;
  e.spawn([](sim::Engine& eng, Mesh& m, sim::Time* out) -> sim::Task<void> {
    co_await m.traverse(TileCoord{0, 0}, TileCoord{5, 3});
    *out = eng.now();
  }(e, mesh, &done));
  e.run();
  EXPECT_EQ(done, 9u * 5000u);
}

TEST(Mesh, RejectsBadConfig) {
  sim::Engine e;
  EXPECT_THROW(Mesh(e, Topology::scc(), 0, 0), PreconditionError);
  // occupancy > L_hop
  EXPECT_THROW(Mesh(e, Topology::scc(), 5000, 6000), PreconditionError);
}

// The route walk books exactly the reference route: for every tile pair,
// one packet on each link of xy_route_links (in any topology, with the
// interposer extras on die-crossing links) and on no other link, arriving
// after those links' latencies plus the destination router.
TEST(Mesh, RouteWalkBooksTheReferenceRoute) {
  constexpr sim::Duration kHop = 5000;
  constexpr sim::Duration kOcc = 2500;
  for (const char* spec : {"scc", "mesh:5x5", "dies:2x2:mesh:4x3"}) {
    SCOPED_TRACE(spec);
    const Topology topo = Topology::parse(spec);
    sim::Engine e;
    Mesh mesh(e, topo, kHop, kOcc);
    const auto slots = static_cast<std::size_t>(topo.num_link_slots());
    std::vector<std::uint64_t> packets(slots, 0);
    std::vector<sim::Duration> busy(slots, 0);
    // Departures 1 us apart: no packet ever waits for an earlier one.
    sim::Time depart = 0;
    for (int a = 0; a < topo.num_tiles(); ++a) {
      for (int b = 0; b < topo.num_tiles(); ++b) {
        const TileCoord src = topo.tile_coord(a);
        const TileCoord dst = topo.tile_coord(b);
        const auto route = xy_route(topo, src, dst);
        const auto links = xy_route_links(topo, src, dst);
        sim::Duration latency = kHop;  // destination router
        for (std::size_t i = 0; i < links.size(); ++i) {
          const bool ixp = topo.link_crosses_die(route[i], route[i + 1]);
          const auto l = static_cast<std::size_t>(links[i]);
          latency += kHop + (ixp ? topo.interposer_extra_latency() : 0);
          busy[l] += kOcc + (ixp ? topo.interposer_extra_occupancy() : 0);
          ++packets[l];
        }
        depart += 1'000'000;
        ASSERT_EQ(mesh.reserve_path(depart, src, dst), depart + latency)
            << "tiles " << a << " -> " << b;
        for (std::size_t l = 0; l < slots; ++l) {
          const auto id = static_cast<LinkId>(l);
          ASSERT_EQ(mesh.link_packets(id), packets[l])
              << "link " << l << " after tiles " << a << " -> " << b;
          ASSERT_EQ(mesh.link_total_occupancy(id), busy[l])
              << "link " << l << " after tiles " << a << " -> " << b;
        }
      }
    }
    const TileCoord last = topo.tile_coord(topo.num_tiles() - 1);
    for (const TileCoord off :
         {TileCoord{-1, 0}, TileCoord{0, -1}, TileCoord{topo.mesh_cols(), 0},
          TileCoord{0, topo.mesh_rows()}}) {
      EXPECT_THROW(mesh.reserve_path(depart, off, last), PreconditionError);
      EXPECT_THROW(mesh.reserve_path(depart, last, off), PreconditionError);
    }
  }
}

TEST(MemCtrl, QuadrantAssignment) {
  EXPECT_EQ(scc().mc_index_for_core(0), 0);                 // tile (0,0)
  EXPECT_EQ(scc().mc_tile_for_core(0), (TileCoord{0, 0}));
  EXPECT_EQ(scc().mc_index_for_core(11), 1);                // tile (5,0)
  EXPECT_EQ(scc().mc_tile_for_core(11), (TileCoord{5, 0}));
  EXPECT_EQ(scc().mc_index_for_core(24), 2);                // tile (0,2)
  EXPECT_EQ(scc().mc_tile_for_core(24), (TileCoord{0, 2}));
  EXPECT_EQ(scc().mc_index_for_core(47), 3);                // tile (5,3)
  EXPECT_EQ(scc().mc_tile_for_core(47), (TileCoord{5, 2}));
}

TEST(MemCtrl, DistancesSpanOneToFour) {
  // The paper's Figure 3 memory panels span exactly 1..4 hops.
  int min_d = 99;
  int max_d = 0;
  for (CoreId c = 0; c < kNumCores; ++c) {
    const int d = scc().mem_distance(c);
    min_d = std::min(min_d, d);
    max_d = std::max(max_d, d);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 4);
  }
  EXPECT_EQ(min_d, 1);
  EXPECT_EQ(max_d, 4);
}

TEST(MemCtrl, EveryQuadrantHasTwelveCores) {
  ASSERT_EQ(scc().num_memory_controllers(), 4);
  std::array<int, 4> counts{};
  for (CoreId c = 0; c < kNumCores; ++c) {
    ++counts[static_cast<std::size_t>(scc().mc_index_for_core(c))];
  }
  for (int n : counts) EXPECT_EQ(n, 12);
}

}  // namespace
}  // namespace ocb::noc
