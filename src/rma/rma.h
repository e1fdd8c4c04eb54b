// One-sided RMA operations (the RCCE put/get equivalents, paper §2.2).
//
// A put executed by core c reads data from its own MPB or its private
// off-chip memory and writes it to some (usually remote) MPB; a get reads
// from some MPB and writes to c's own MPB or private memory. Data moves one
// cache line at a time because the P54C issues a single outstanding memory
// transaction (§3.1.3): an m-line operation is m sequential line
// transactions plus one per-operation software overhead, which is exactly
// the structure of the model's Formulas 7-12.
//
// Every operation can also report the FNV-1a 64 checksum (fold_line,
// common/types.h) of the lines as this core OBSERVED them — after the
// observer chain's on_read, in line order — through its optional `sum`
// output. The fold happens on bytes the core already holds, so it costs no
// simulated time; a getter comparing its fold against the putter's
// published one detects any corruption the read path introduced (the
// end-to-end integrity core/ft_ocbcast.h builds on). The data lands even
// when the checksum later proves it corrupt; callers re-fetch before use.
//
// All offsets are in cache lines for MPBs and in bytes (line-aligned) for
// private memory.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "scc/core.h"

namespace ocb::rma {

/// A location inside some core's MPB.
struct MpbAddr {
  CoreId owner = 0;
  std::size_t line = 0;

  friend bool operator==(const MpbAddr&, const MpbAddr&) = default;
};

/// put, source = caller's local MPB (Formula 7):
/// C = o_put^mpb + m*C_r^mpb(1) + m*C_w^mpb(d_dst).
sim::Task<void> put_mpb_to_mpb(scc::Core& self, MpbAddr dst, std::size_t src_line,
                               std::size_t lines, std::uint64_t* sum = nullptr);

/// put, source = caller's private memory (Formula 8):
/// C = o_put^mem + m*C_r^mem(d_src) + m*C_w^mpb(d_dst).
sim::Task<void> put_mem_to_mpb(scc::Core& self, MpbAddr dst, std::size_t src_offset,
                               std::size_t lines, std::uint64_t* sum = nullptr);

/// get, destination = caller's local MPB (Formula 11):
/// C = o_get^mpb + m*C_r^mpb(d_src) + m*C_w^mpb(1).
sim::Task<void> get_mpb_to_mpb(scc::Core& self, std::size_t dst_line, MpbAddr src,
                               std::size_t lines, std::uint64_t* sum = nullptr);

/// get, destination = caller's private memory (Formula 12):
/// C = o_get^mem + m*C_r^mpb(d_src) + m*C_w^mem(d_dst).
sim::Task<void> get_mpb_to_mem(scc::Core& self, std::size_t dst_offset, MpbAddr src,
                               std::size_t lines, std::uint64_t* sum = nullptr);

/// Host-side (zero simulated cost) checksum of `lines` cache lines of core
/// `core`'s private memory starting at byte `offset` — for verification.
std::uint64_t host_checksum_mem(scc::SccChip& chip, CoreId core,
                                std::size_t offset, std::size_t lines);

}  // namespace ocb::rma
