// SCC simulator configuration.
//
// Microscopic timing parameters chosen so that the *measured* behaviour of
// the simulator reproduces the paper's aggregate model parameters (Table 1)
// exactly, via these identities (all per single cache line):
//
//   o_mpb   = o_mpb_core       + t_mpb_port  = 116 + 10  = 126 ns
//   o_mem_r = o_mem_core_read  + t_mc_port   = 198 + 10  = 208 ns
//   o_mem_w = o_mem_core_write + t_mc_port   = 451 + 10  = 461 ns
//   L_hop   = 5 ns
//
// so e.g. a remote MPB line read completes in o_mpb + 2d*L_hop (Formula 3):
// core overhead, d routers to the target, port service, d routers back.
//
// The split matters only under contention: the *_port shares are the time
// the shared resource (tile MPB port / memory-controller bank) is actually
// held, which produces Figure 4's contention knee — ~24 concurrent
// accessors fit in one requester's round-trip shadow, 48 do not.
#pragma once

#include <cstdint>

#include "noc/topology.h"
#include "sim/resource.h"
#include "sim/time.h"

namespace ocb::scc {

struct SccConfig {
  // --- geometry ---------------------------------------------------------
  /// Chip floorplan: mesh shape, dies, interposer timing, MC placement.
  /// Defaults to the paper's SCC (6×4 tiles, 2 cores/tile, 4 corner MCs);
  /// see noc/topology.h for the mesh()/multi_die()/parse() factories.
  noc::Topology topology = noc::Topology::scc();

  // --- mesh -----------------------------------------------------------
  /// Per-router packet latency (Table 1: 0.005 us).
  sim::Duration l_hop = 5 * sim::kNanosecond;
  /// Serialization time of one cache-line packet on a mesh link; must not
  /// exceed l_hop (cut-through pipeline). 32 B over the SCC's 16 B/cycle
  /// links at 800 MHz = 2 cycles = 2.5 ns.
  sim::Duration link_occupancy = 2'500 * sim::kPicosecond;

  // --- MPB ------------------------------------------------------------
  /// Core-side overhead of a single-line MPB read or write.
  sim::Duration o_mpb_core = 116 * sim::kNanosecond;
  /// Tile MPB port hold per line transaction (the Fig. 4 contended share):
  /// one requester's closed-loop line round trip is ~280-300 ns, so ~24
  /// concurrent requesters fit contention-free and 48 queue (~2x), the
  /// paper's knee.
  sim::Duration t_mpb_port = 10 * sim::kNanosecond;
  /// If false (default), a core's accesses to its own MPB bypass port
  /// arbitration (they still pay the d=1 router and service latency).
  bool local_mpb_uses_port = false;

  // --- off-chip memory --------------------------------------------------
  /// Core-side overhead of reading one line from private off-chip memory.
  sim::Duration o_mem_core_read = 198 * sim::kNanosecond;
  /// Core-side overhead of writing one line to private off-chip memory.
  sim::Duration o_mem_core_write = 451 * sim::kNanosecond;
  /// Memory-controller bank hold per line transaction.
  sim::Duration t_mc_port = 10 * sim::kNanosecond;

  // --- put/get per-operation software overheads (Table 1) ---------------
  sim::Duration o_put_mpb = 69 * sim::kNanosecond;
  sim::Duration o_get_mpb = 330 * sim::kNanosecond;
  sim::Duration o_put_mem = 190 * sim::kNanosecond;
  sim::Duration o_get_mem = 95 * sim::kNanosecond;

  // --- inter-core interrupts (MPMD support, paper §7) --------------------
  /// Sender-side cost of raising a remote interrupt (a write to the
  /// target's configuration register through the mesh).
  sim::Duration o_ipi_send = 80 * sim::kNanosecond;
  /// Config-register service time at the target tile.
  sim::Duration t_ipi_service = 10 * sim::kNanosecond;
  /// Receiver-side interrupt entry overhead (trap + sccLinux handler):
  /// the reason the paper's SPMD path polls instead.
  sim::Duration o_irq_entry = 2 * sim::kMicrosecond;
  /// Cost of checking the local pending bit between compute quanta.
  sim::Duration o_irq_check = 20 * sim::kNanosecond;

  // --- data cache -------------------------------------------------------
  /// Models the paper's §5.2.2 assumption that a just-received message is
  /// re-sent from cache: private-memory reads that hit skip the off-chip
  /// path. Write-allocate, LRU, write-through (writes always pay full cost).
  bool cache_enabled = true;
  /// Capacity in cache lines (default 256 KB = the SCC's per-core L2).
  std::size_t cache_capacity_lines = 8192;
  /// Cost of a cache-hit line read.
  sim::Duration o_cache_hit = 6 * sim::kNanosecond;

  // --- arbitration and noise ---------------------------------------------
  /// MPB-port / MC-bank queue discipline. kPositional models the SCC's
  /// fixed-priority arbitration (requester core id = priority), which is
  /// what makes heavy contention hit cores unequally (Fig. 4's spread).
  sim::Arbitration arbitration = sim::Arbitration::kPositional;
  /// Master switch for the coalesced RMA fast path (scc/bulk.h): multi-line
  /// put/get computed closed-form from the Fig. 2 cost model instead of one
  /// coroutine round trip per line. Timing-neutral by construction — the
  /// per-line path is used automatically whenever jitter or an observer
  /// that is not bulk-capable is active (see scc/observer.h and DESIGN.md
  /// "Fast-path transaction coalescing"; the built-in checker, trace sink,
  /// and fault injector are bulk-capable and keep the fast path on);
  /// turning this off forces the per-line path everywhere, which must
  /// produce identical results (tests/coalescing_equivalence and
  /// tests/observer_fastpath assert it).
  bool coalescing = true;
  /// Max uniform jitter added to each core-side overhead (0 = none).
  sim::Duration jitter = 0;
  /// Seed for all per-core RNG streams (payloads, jitter).
  std::uint64_t seed = 0x5cc'0c'bca57ULL;

  /// Per-core private memory growth cap.
  std::size_t private_memory_limit = 64u << 20;

  // --- derived Table 1 aggregates ----------------------------------------
  sim::Duration o_mpb() const { return o_mpb_core + t_mpb_port; }
  sim::Duration o_mem_read() const { return o_mem_core_read + t_mc_port; }
  sim::Duration o_mem_write() const { return o_mem_core_write + t_mc_port; }

  /// Throws PreconditionError if the configuration is inconsistent.
  void validate() const;

  /// What-if scaling (the paper's conclusion argues RMA-based collectives
  /// matter for FUTURE many-cores; this knob lets benches probe that):
  /// returns a config with core-side software costs divided by
  /// `core_speedup`, mesh timing (L_hop, link occupancy, MPB/IPI port
  /// service) by `mesh_speedup`, and memory-system costs (off-chip
  /// overheads, MC service) by `mem_speedup`. The split of o_mem between
  /// core and DRAM time is approximate (documented in docs/MODEL.md);
  /// durations are rounded to >= 1 ps.
  SccConfig scaled(double core_speedup, double mesh_speedup,
                   double mem_speedup) const;
};

}  // namespace ocb::scc
