#include "scc/config.h"

#include "common/require.h"
#include "scc/core.h"

namespace ocb::scc {

void SccConfig::validate() const {
  OCB_REQUIRE(l_hop > 0, "l_hop must be positive");
  OCB_REQUIRE(link_occupancy > 0 && link_occupancy <= l_hop,
              "link_occupancy must be in (0, l_hop]");
  OCB_REQUIRE(t_mpb_port > 0, "t_mpb_port must be positive");
  OCB_REQUIRE(t_mc_port > 0, "t_mc_port must be positive");
  OCB_REQUIRE(cache_capacity_lines > 0 || !cache_enabled,
              "enabled cache needs nonzero capacity");
  OCB_REQUIRE(private_memory_limit >= 1u << 20,
              "private memory limit unrealistically small");
  OCB_REQUIRE(private_memory_limit / kCacheLineBytes <= DataCache::kMaxLines,
              "private memory limit must stay below 128 GiB, the reach of "
              "the data cache's 32-bit line index");
}

namespace {
sim::Duration scale(sim::Duration d, double speedup) {
  OCB_REQUIRE(speedup > 0.0, "speedup must be positive");
  const double v = static_cast<double>(d) / speedup;
  return v < 1.0 ? sim::Duration{1} : static_cast<sim::Duration>(v + 0.5);
}
}  // namespace

SccConfig SccConfig::scaled(double core_speedup, double mesh_speedup,
                            double mem_speedup) const {
  SccConfig out = *this;
  // Core-side software costs.
  out.o_mpb_core = scale(o_mpb_core, core_speedup);
  out.o_put_mpb = scale(o_put_mpb, core_speedup);
  out.o_get_mpb = scale(o_get_mpb, core_speedup);
  out.o_put_mem = scale(o_put_mem, core_speedup);
  out.o_get_mem = scale(o_get_mem, core_speedup);
  out.o_cache_hit = scale(o_cache_hit, core_speedup);
  out.o_ipi_send = scale(o_ipi_send, core_speedup);
  out.o_irq_entry = scale(o_irq_entry, core_speedup);
  out.o_irq_check = scale(o_irq_check, core_speedup);
  // Mesh timing.
  out.l_hop = scale(l_hop, mesh_speedup);
  out.link_occupancy = scale(link_occupancy, mesh_speedup);
  out.t_mpb_port = scale(t_mpb_port, mesh_speedup);
  out.t_ipi_service = scale(t_ipi_service, mesh_speedup);
  // Memory system.
  out.o_mem_core_read = scale(o_mem_core_read, mem_speedup);
  out.o_mem_core_write = scale(o_mem_core_write, mem_speedup);
  out.t_mc_port = scale(t_mc_port, mem_speedup);
  // Keep the cut-through invariant if the scales diverged.
  if (out.link_occupancy > out.l_hop) out.link_occupancy = out.l_hop;
  out.validate();
  return out;
}

}  // namespace ocb::scc
