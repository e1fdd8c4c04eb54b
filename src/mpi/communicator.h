// A minimal MPI-flavoured facade over the chip — the paper's conclusion
// sketches integrating OC-Bcast into an MPI library; this is that
// integration in miniature, so SPMD applications can be written without
// touching MPB layouts or flag protocols.
//
// One Communicator spans cores 0..size-1 ("MPI_COMM_WORLD"). It owns a
// coordinated MPB layout so all of its operations coexist in the 256-line
// MPB (derived at construction; for 48 cores and k = 7):
//
//   lines   0..205   OC-Bcast (notify + 7 doneFlags + 2x96 buffers + fence)
//   lines 206..211   dissemination barrier (6 rounds for 48 cores)
//   line  212        two-sided `ready`
//   line  213        two-sided `sent`
//   lines 214..255   two-sided payload (42 lines)
//
// Every collective keeps MPI's matched-call contract: all ranks call the
// same operation with compatible arguments. Offsets address each core's
// private off-chip memory; counts are bytes (line granularity applies to
// what lands in memory beyond the byte count, as everywhere in this
// library).
#pragma once

#include <memory>

#include "core/ocbcast.h"
#include "rma/barrier.h"
#include "rma/twosided.h"

namespace ocb::mpi {

class Communicator {
 public:
  /// Spans cores 0..size-1 of `chip`, 0 meaning every core of the chip.
  /// The communicator must outlive the simulation run.
  explicit Communicator(scc::SccChip& chip, int size = 0);

  int size() const { return size_; }
  scc::SccChip& chip() { return *chip_; }

  /// MPI_Send (blocking, matched).
  sim::Task<void> send(scc::Core& self, int dst, std::size_t offset,
                       std::size_t bytes);

  /// MPI_Recv (blocking, matched).
  sim::Task<void> recv(scc::Core& self, int src, std::size_t offset,
                       std::size_t bytes);

  /// MPI_Bcast via OC-Bcast (k = 7 pipelined tree).
  sim::Task<void> bcast(scc::Core& self, int root, std::size_t offset,
                        std::size_t bytes);

  /// MPI_Barrier (dissemination over MPB flags).
  sim::Task<void> barrier(scc::Core& self);

  /// MPI_Gather: every rank's [send_offset, +bytes_per_rank) lands at the
  /// root's recv_offset + rank * gather_stride(bytes_per_rank) — the
  /// stride is rounded up to whole cache lines, the RMA granularity. (The
  /// root copies its own contribution at memory-transaction cost.)
  sim::Task<void> gather(scc::Core& self, int root, std::size_t send_offset,
                         std::size_t recv_offset, std::size_t bytes_per_rank);

  /// MPI_Reduce(MPI_SUM, double): element-wise sum of every rank's `count`
  /// doubles at `offset` into the root's same region. Uses
  /// [scratch_offset, + size * count * 8) of the root's memory for
  /// gathered contributions; per-element adds are charged as compute.
  sim::Task<void> reduce_sum(scc::Core& self, int root, std::size_t offset,
                             std::size_t count, std::size_t scratch_offset);

  /// Line-aligned placement stride used by gather()/reduce_sum().
  static constexpr std::size_t gather_stride(std::size_t bytes_per_rank) {
    return cache_lines_for(bytes_per_rank) * kCacheLineBytes;
  }

 private:
  scc::SccChip* chip_;
  int size_;
  std::unique_ptr<core::OcBcast> bcast_;
  std::unique_ptr<rma::FlagBarrier> barrier_;
  std::unique_ptr<rma::TwoSided> twosided_;
};

}  // namespace ocb::mpi
