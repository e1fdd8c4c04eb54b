// A simulated SCC core (P54C).
//
// Core exposes exactly the memory-traffic primitives the real core has: one
// cache-line transaction at a time (the paper's §3.1.3 justification for
// dropping LogP's g parameter), against its own MPB, any remote MPB, or its
// private off-chip memory. Multi-line RMA operations (rma/rma.h) are loops
// over these.
//
// All methods are coroutines; their completion times reproduce the model
// formulas of Figure 2 (see scc/config.h for the parameter decomposition).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "noc/topology.h"
#include "sim/condition.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ocb::scc {

class SccChip;

/// Write-allocate LRU set of private-memory line offsets (models the data
/// cache keeping a just-transferred message warm; paper §5.2.2).
///
/// Line-indexed: a line's LRU links (two 32-bit line numbers) sit at the
/// line's own index, offset / kCacheLineBytes, in a 256-line page found
/// through a vector indexed by line / 256, so neither the key nor a probe
/// table is stored. Every simulated private-memory line transaction goes
/// through here, so nothing is allocated per entry: a page exists only
/// while one of its lines is cached, and a page that empties waits on a
/// spare list for the next page allocation, so a core streaming past its
/// capacity allocates nothing in steady state. Contiguous use costs 8 B per
/// cached line; a page (about 2 KiB) spans 8 KiB of the private memory the
/// core already holds, so even one cached line per page stays under a
/// quarter of it. The page index costs 8 B per 8 KiB of private memory, and
/// an idle core's cache costs nothing.
class DataCache {
 public:
  /// Lines the 32-bit links can name: numbers from here up are sentinels.
  static constexpr std::size_t kMaxLines = 0xfffffffeu;

  explicit DataCache(std::size_t capacity_lines) : capacity_(capacity_lines) {}

  /// True (and refreshed) if the line at `offset` is cached. `offset` must
  /// be line-aligned, as for mem::PrivateMemory::load.
  bool lookup(std::size_t offset);

  /// Inserts the line at `offset` (line-aligned, offset / kCacheLineBytes
  /// below kMaxLines), evicting the least-recently-used line beyond
  /// capacity.
  void insert(std::size_t offset);

  void clear();
  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;     // ends the list
  static constexpr std::uint32_t kAbsent = kMaxLines;    // prev: not cached
  static constexpr std::size_t kPageLines = 256;

  struct Link {
    std::uint32_t prev = kAbsent;
    std::uint32_t next = kNil;
  };
  struct Page {
    std::array<Link, kPageLines> links;
    std::uint32_t live = 0;  // cached lines in this page
  };

  Link& at(std::uint32_t line) {
    return pages_[line / kPageLines]->links[line % kPageLines];
  }
  bool cached(std::size_t line) const;
  /// The line's page; a missing one comes off the spare list, or is
  /// allocated when that list is empty.
  Page& page_for(std::uint32_t line);
  void touch(std::uint32_t line);
  void lru_detach(std::uint32_t line);
  void lru_push_front(std::uint32_t line);
  /// Drops a cached line; its page goes to the spare list once empty.
  void evict(std::uint32_t line);

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::vector<std::unique_ptr<Page>> pages_;  // line / kPageLines -> page
  std::vector<std::unique_ptr<Page>> spare_;  // empty pages, links absent
};

class Core {
 public:
  Core(SccChip& chip, CoreId id);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  CoreId id() const { return id_; }
  noc::TileCoord tile() const { return tile_; }
  /// Tile the core's memory controller attaches to.
  noc::TileCoord mc_tile() const { return mc_tile_; }
  /// Routers between this core and its memory controller (model's d^mem).
  int mem_distance() const { return mem_distance_; }
  /// Routers between this core and core `other`'s MPB (model's d^mpb).
  int mpb_distance(CoreId other) const;

  SccChip& chip() { return *chip_; }
  sim::Time now() const;

  /// Deterministic per-core random stream.
  Xoshiro256& rng() { return rng_; }

  /// Occupies the core for `d` (plus configured jitter), e.g. software
  /// overhead or application compute.
  sim::Task<void> busy(sim::Duration d);

  // --- single cache-line transactions ------------------------------------

  /// Reads one line from core `owner`'s MPB into `out`.
  /// Completion: o_mpb + 2d*L_hop (Formula 3).
  ///
  /// `epoch_out` (optional) additionally samples the line's trigger epoch
  /// for the read-then-park flag-wait pattern (rma::wait_flag et al.). It
  /// is sampled before the transaction starts, so a store landing any time
  /// after that moves the epoch and the caller's park returns at once.
  sim::Task<void> mpb_read_line(CoreId owner, std::size_t line, CacheLine& out,
                                std::uint64_t* epoch_out = nullptr);

  /// Writes one line into core `owner`'s MPB; returns when the write is
  /// acknowledged (Formula 2); the data is visible remotely ~d*L_hop
  /// earlier (Formula 1), which the store's placement models exactly.
  sim::Task<void> mpb_write_line(CoreId owner, std::size_t line, CacheLine value);

  /// Reads one line of this core's private memory (cache modelled).
  /// Miss completion: o_mem_r + 2d*L_hop (Formula 6).
  sim::Task<void> mem_read_line(std::size_t offset, CacheLine& out);

  /// Writes one line of this core's private memory (write-through).
  /// Completion: o_mem_w + 2d*L_hop (Formula 5).
  sim::Task<void> mem_write_line(std::size_t offset, CacheLine value);

  DataCache& cache() { return cache_; }

  // --- inter-core interrupts (paper §7's MPMD direction) ------------------

  /// Raises an interrupt at `target` by writing its configuration register
  /// through the mesh. Completion: o_ipi_send + 2d*L_hop (+ service).
  /// Interrupts are counted, not coalesced: n sends wake n waits.
  sim::Task<void> send_interrupt(CoreId target);

  /// Blocks until an interrupt is pending, consumes it, and charges the
  /// trap/handler entry overhead (o_irq_entry).
  sim::Task<void> wait_interrupt();

  /// Checks-and-consumes a pending interrupt between compute quanta:
  /// charges o_irq_check, plus o_irq_entry when one was taken.
  sim::Task<bool> poll_interrupt();

  /// Pending count (host-side query, no simulated cost).
  int interrupts_pending() const { return irq_pending_; }

  // --- diagnostics ---------------------------------------------------------

  /// Records what this core is (about to be) blocked on; blocking
  /// primitives (rma::wait_flag, interrupt waits, fault halts) call this so
  /// a stalled run can report WHY each core hung (sim::RunResult's
  /// stalled_details). Cheap: three stores, formatted lazily.
  void set_wait_note(const char* what, CoreId owner = -1, int line = -1) {
    wait_what_ = what;
    wait_owner_ = owner;
    wait_line_ = line;
  }

  /// Renders the last recorded wait note, e.g. "flag-wait mpb[7]:3".
  std::string wait_note() const;

  /// Collective-stage provenance for observers (the race checker stamps
  /// violations with it). `what` must be a string literal or otherwise
  /// outlive the run; zero simulated cost.
  void set_stage(const char* what) { stage_ = what; }
  const char* stage() const { return stage_; }

 private:
  friend class SccChip;
  void raise_interrupt() {
    ++irq_pending_;
    irq_trigger_.fire();
  }

  sim::Duration jittered(sim::Duration d);
  sim::Task<void> core_overhead(sim::Duration d);
  /// Crash/stall gate run before each transaction when any observer is
  /// installed: a crashed core parks here forever, a stalled one sleeps.
  sim::Task<void> observer_gate();

  SccChip* chip_;
  CoreId id_;
  noc::TileCoord tile_;
  noc::TileCoord mc_tile_;
  int mc_index_;
  int mem_distance_;
  DataCache cache_;
  Xoshiro256 rng_;
  int irq_pending_ = 0;
  sim::Trigger irq_trigger_;
  const char* wait_what_ = "running";
  const char* stage_ = "";
  CoreId wait_owner_ = -1;
  int wait_line_ = -1;
};

}  // namespace ocb::scc
