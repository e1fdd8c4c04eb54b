// FT-OC-Bcast: OC-Bcast hardened against the ocb::fault failure model.
//
// Same pipelined k-ary propagation + binary notification structure as
// core/ocbcast.h, with three additions that buy fault tolerance for a few
// extra control-line transactions per chunk (<5% zero-fault overhead):
//
//  * End-to-end checksums. Every stager publishes a per-buffer "staged
//    line" — (chunk sequence, FNV-1a 64 of the chunk) in one cache line —
//    next to its payload buffers. Getters fold the checksum over the lines
//    they actually observed (the `sum` output of the rma/rma.h operations)
//    and re-fetch on mismatch, so transient read corruption never
//    propagates down the tree or into private memory. The payload moves
//    through the same put/get as every other collective, so it takes the
//    coalesced scc::BulkOp path wherever the chip grants one (every core
//    with no stall or crash planned against it).
//
//  * Watchdogs + reliable flag writes. Every flag wait carries a deadline
//    (rma/reliable.h); control-line writes are verified by read-back with
//    doubling backoff. A lost notification degrades to polling the source's
//    staged line (the ground truth); a stuck done-line is ridden out by the
//    writer's retries.
//
//  * Crash routing ("frontier substitution"). A fail-stopped core's tile
//    SRAM stays readable, and — by the ack-after-stage invariant — every
//    chunk it ever acked is still staged in its frozen MPB, checksummed.
//    Orphans whose source stops advancing presume it dead and re-route
//    their gets one level up (static tree walk toward the root); the dead
//    core's parent substitutes the missing done-flag by reading the
//    *grandchildren's* done lines directly out of the dead core's MPB.
//    One non-root fail-stop is thus survived with every living core still
//    delivering a byte-correct message.
//
// Out of model (documented in docs/PROTOCOLS.md §"Failure model"): root
// crashes, simultaneous crashes, write-side payload corruption (the real
// SCC's write path is acknowledged per line; DRAM carries ECC), and stalls
// exceeding the watchdog probe budget. A core that exhausts its bounded
// retries gives up and reports it (DeliveryReport::gave_up) instead of
// wedging the survivors.
//
// MPB layout: the family's (core/pipeline.h) with D = k done slots and a
// staged line per buffer — (chunk sequence, checksum) — ahead of the
// buffers. Defaults (k=7, B=2, m=96): 208 of 256 lines.
#pragma once

#include <cstdint>
#include <vector>

#include "coll/collective.h"
#include "core/pipeline.h"
#include "core/tree.h"
#include "rma/reliable.h"
#include "scc/chip.h"

namespace ocb::core {

/// Per-core outcome of the last run() (host-side, zero simulated cost).
struct DeliveryReport {
  bool participated = false;
  bool delivered = false;  ///< all chunks landed byte-correct in private mem
  bool gave_up = false;    ///< exhausted the per-chunk attempt budget
  std::uint64_t checksum_retries = 0;   ///< refetches after a sum mismatch
  std::uint64_t watchdog_timeouts = 0;  ///< flag waits that hit the deadline
  std::uint64_t reroutes = 0;           ///< data-source switches (crash path)
  std::uint64_t substituted_acks = 0;   ///< dead-child acks read from its MPB
};

/// Honors parties, k, chunk_lines, double_buffering and mpb_base_line. Its
/// watchdog and retry budgets are fixed (see ft_ocbcast.cpp); leaves always
/// land straight into private memory.
class FtOcBcast final : public coll::Collective {
 public:
  FtOcBcast(scc::SccChip& chip, const coll::Params& params = {});

  std::string name() const override;
  int parties() const override { return params_.parties; }
  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override;

  const DeliveryReport& report(CoreId core) const {
    return reports_[static_cast<std::size_t>(core)];
  }

  /// MPB layout: D = k done slots plus a staged line per buffer.
  const TreeLayout& layout() const { return layout_; }

 private:
  struct Staged {
    std::uint64_t seq = 0;
    std::uint64_t sum = 0;
    /// FNV tag over (seq, sum) validated; a corrupted staged-line *read*
    /// decodes invalid and is re-polled rather than believed.
    bool valid = false;
  };
  static CacheLine encode_staged(std::uint64_t seq, std::uint64_t sum);
  static Staged decode_staged(const CacheLine& cl);

  /// Writes (seq, sum) into self's staged line with read-back verification.
  sim::Task<void> write_staged_reliable(scc::Core& self, std::uint64_t parity,
                                        std::uint64_t seq, std::uint64_t sum);

  /// FT child-ack wait: watchdogs each done flag; a child that stops
  /// responding is presumed dead and its ack substituted by its own
  /// children's done lines, read out of ITS (still addressable) MPB.
  sim::Task<void> wait_children_done(scc::Core& self, const KaryTree& tree,
                                     const std::vector<CoreId>& children,
                                     std::uint64_t minimum);

  /// Stage + publish one chunk at the root.
  sim::Task<void> root_chunk(scc::Core& self, const KaryTree& tree,
                             const std::vector<CoreId>& children,
                             const std::vector<CoreId>& own, std::uint64_t seq,
                             std::uint64_t parity, std::size_t lines,
                             std::size_t mem_off, std::uint64_t reuse_min);

  /// Detect, fetch (with verification and re-routing), republish, and land
  /// one chunk at a non-root. Returns false when the core gave up.
  sim::Task<bool> follower_chunk(scc::Core& self, const KaryTree& tree,
                                 const std::vector<CoreId>& children,
                                 const std::vector<CoreId>& forward,
                                 const std::vector<CoreId>& own,
                                 bool& use_notify, std::uint64_t seq,
                                 std::uint64_t parity, std::size_t lines,
                                 std::size_t mem_off, std::uint64_t reuse_min);

  scc::SccChip* chip_;
  coll::Params params_;
  TreeLayout layout_;
  CallSequence calls_;
  std::vector<DeliveryReport> reports_;
  /// presumed_dead_[viewer][peer]: viewer's local suspicion; never shared
  /// (each core routes around failures on its own evidence).
  std::vector<std::vector<bool>> presumed_dead_;
};

}  // namespace ocb::core
