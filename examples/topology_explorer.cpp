// Explores the simulated SCC's floorplan and communication costs:
//  * the 6x4 tile map with core ids and memory-controller corners,
//  * X-Y routes between chosen cores,
//  * the model's cost surface (read/write completion vs. distance),
//  * per-core memory-controller assignment and distance.
#include <cstdio>

#include "common/format.h"
#include "model/primitives.h"
#include "noc/routing.h"
#include "noc/topology.h"

using namespace ocb;

namespace {

const noc::Topology& scc() { return noc::Topology::scc(); }

void print_floorplan() {
  std::printf("SCC floorplan: 24 tiles (2 cores each), memory controllers at "
              "the marked corners\n\n");
  for (int y = 0; y < scc().mesh_rows(); ++y) {
    for (int x = 0; x < scc().mesh_cols(); ++x) {
      const int tile = scc().tile_index(noc::TileCoord{x, y});
      const CoreId c0 = scc().first_core_of_tile(tile);
      bool is_mc = false;
      for (int m = 0; m < scc().num_memory_controllers(); ++m) {
        if (scc().mc_tile(m) == noc::TileCoord{x, y}) is_mc = true;
      }
      std::printf("[%2d,%2d%s]", c0, c0 + 1, is_mc ? "*" : " ");
    }
    std::printf("\n");
  }
  std::printf("\n(* = router with an attached DDR3 memory controller)\n\n");
}

void print_route(CoreId from, CoreId to) {
  const noc::TileCoord src = scc().tile_of_core(from);
  const noc::TileCoord dst = scc().tile_of_core(to);
  std::printf("X-Y route core %d -> core %d: ", from, to);
  for (const noc::TileCoord& t : noc::xy_route(scc(), src, dst)) {
    std::printf("(%d,%d) ", t.x, t.y);
  }
  std::printf(" [%d routers]\n", noc::Topology::routers_traversed(src, dst));
}

void print_cost_surface() {
  const model::ModelParams p = model::ModelParams::paper();
  TextTable table({"hops", "mpb_read_us", "mpb_write_us", "get96_to_mpb_us",
                   "put96_from_mem_us"});
  for (int d = 1; d <= 9; ++d) {
    table.add_row({std::to_string(d),
                   fmt_us_from_ps(model::mpb_read_completion(p, d)),
                   fmt_us_from_ps(model::mpb_write_completion(p, d)),
                   fmt_us_from_ps(model::get_to_mpb_completion(p, 96, d)),
                   d <= 4 ? fmt_us_from_ps(model::put_from_mem_completion(p, 96, d, 1))
                          : std::string("-")});
  }
  std::printf("Model cost surface (Figure 2 formulas, Table 1 parameters)\n%s\n",
              table.str().c_str());
}

void print_mc_assignment() {
  TextTable table({"core", "tile", "mc_router", "hops_to_mc"});
  for (CoreId c : {0, 5, 11, 17, 22, 24, 30, 40, 47}) {
    const noc::TileCoord t = scc().tile_of_core(c);
    const noc::TileCoord mc = scc().mc_tile_for_core(c);
    table.add_row({std::to_string(c),
                   "(" + std::to_string(t.x) + "," + std::to_string(t.y) + ")",
                   "(" + std::to_string(mc.x) + "," + std::to_string(mc.y) + ")",
                   std::to_string(scc().mem_distance(c))});
  }
  std::printf("Quadrant memory-controller assignment (sample)\n%s\n",
              table.str().c_str());
}

}  // namespace

int main() {
  print_floorplan();
  print_route(0, 47);
  print_route(12, 22);
  print_route(5, 4);
  std::printf("\n");
  print_cost_surface();
  print_mc_assignment();
  std::printf("Note the paper's §3.2 observation: the 9-hop vs 1-hop penalty for a\n"
              "fixed message is only ~30%% — distance matters far less than the\n"
              "per-line overheads, which is why §5.1 models d = 1 everywhere.\n");
  return 0;
}
