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
/// Flat storage: an intrusive doubly-linked LRU over index slots plus an
/// open-addressing (linear-probe, backward-shift-delete) hash table. Every
/// simulated private-memory line transaction goes through here, so the
/// structure must not allocate per entry — node-based list/map churn and
/// rehashing used to dominate large-broadcast simulation profiles. Storage
/// follows the live lines: live slots are always 0..size()-1 (eviction
/// reuses the tail's slot), so slots grow by appending fixed-size pages and
/// the probe table doubles to stay at <= 50% load. Idle cores' caches cost
/// nothing, and a core that touches few lines never pays for the capacity.
class DataCache {
 public:
  explicit DataCache(std::size_t capacity_lines) : capacity_(capacity_lines) {}

  /// True (and refreshed) if the line is cached.
  bool lookup(std::size_t offset);

  /// Inserts a line, evicting least-recently-used beyond capacity.
  void insert(std::size_t offset);

  void clear();
  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kPageSlots = 256;

  struct Slot {
    std::size_t key;
    std::uint32_t prev;
    std::uint32_t next;
  };
  using Page = std::array<Slot, kPageSlots>;

  Slot& at(std::uint32_t slot) {
    return (*pages_[slot / kPageSlots])[slot % kPageSlots];
  }
  const Slot& at(std::uint32_t slot) const {
    return (*pages_[slot / kPageSlots])[slot % kPageSlots];
  }
  /// Appends slot `size_` (a new page when the last one is full) and keeps
  /// the table at <= 50% load for the grown size.
  std::uint32_t append_slot();
  std::size_t ideal_index(std::size_t key) const;
  /// Probe position holding `key`'s slot, or the table's npos sentinel.
  std::uint32_t find_slot(std::size_t key) const;
  void table_insert(std::size_t key, std::uint32_t slot);
  void table_erase(std::size_t key);
  void lru_detach(std::uint32_t slot);
  void lru_push_front(std::uint32_t slot);

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t mask_ = 0;                     // table size - 1 (power of two)
  std::vector<std::unique_ptr<Page>> pages_;  // LRU slots, kPageSlots a page
  std::vector<std::uint32_t> table_;         // probe position -> slot or kNil
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
