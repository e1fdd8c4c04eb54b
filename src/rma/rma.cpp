#include "rma/rma.h"

#include "common/require.h"
#include "scc/bulk.h"
#include "scc/chip.h"

namespace ocb::rma {

namespace {

void require_mpb_range(std::size_t first_line, std::size_t lines) {
  OCB_REQUIRE(lines > 0, "zero-length RMA operation");
  OCB_REQUIRE(first_line + lines <= kMpbCacheLines, "MPB range out of bounds");
}

void require_mem_offset(std::size_t offset) {
  OCB_REQUIRE(offset % kCacheLineBytes == 0, "private-memory offset must be line-aligned");
}

// All four operations, in BulkOp::run's terms: `mpb_owner`/`mpb_line` is
// the (usually remote) MPB side, `local_index` the caller's MPB line or
// private-memory byte offset (scc::BulkKind says which).
//
// The op takes the coalesced fast path (scc/bulk.h) when the chip grants
// it one (SccChip::try_acquire_bulk) — timing-identical by construction,
// asserted by tests/coalescing_equivalence_test.cpp and
// tests/observer_fastpath_test.cpp — and otherwise the per-line loop,
// which is the reference semantics (and the only path non-bulk-capable
// observers and jitter ever see). Acquisition can fail for cores
// multiplexing several collectives (svc/): each core keeps a small pool
// of BulkOps, and an op that finds every slot busy runs the per-line
// path, which interleaves with the in-flight chains exactly like
// concurrent reference ops. It also fails per-op when an observer's bulk
// window is not clear (a fault plan with a pending stall/crash for this
// core), which routes exactly the perturbed cores through the gates.
// Both paths fold `sum` at the same point: after the line's read and its
// on_read observation, before its write.
sim::Task<void> transfer(scc::Core& self, scc::BulkKind kind,
                         sim::Duration op_overhead, CoreId mpb_owner,
                         std::size_t mpb_line, std::size_t local_index,
                         std::size_t lines, std::uint64_t* sum) {
  const bool from_mem = kind == scc::BulkKind::kPutMemToMpb;
  const bool to_mem = kind == scc::BulkKind::kGetMpbToMem;
  if (from_mem || to_mem) {
    require_mem_offset(local_index);
  } else {
    require_mpb_range(local_index, lines);
  }
  require_mpb_range(mpb_line, lines);
  if (sum != nullptr) *sum = kFnvOffsetBasis;
  if (scc::BulkOp* bulk = self.chip().try_acquire_bulk(self.id(), lines)) {
    co_await bulk->run(kind, op_overhead, mpb_owner, mpb_line, local_index,
                       lines, sum);
    co_return;
  }
  co_await self.busy(op_overhead);
  const bool put = kind == scc::BulkKind::kPutMpbToMpb || from_mem;
  const CoreId src_owner = put ? self.id() : mpb_owner;
  const CoreId dst_owner = put ? mpb_owner : self.id();
  const std::size_t src_line = put ? local_index : mpb_line;
  const std::size_t dst_line = put ? mpb_line : local_index;
  for (std::size_t i = 0; i < lines; ++i) {
    CacheLine cl;
    if (from_mem) {
      co_await self.mem_read_line(local_index + i * kCacheLineBytes, cl);
    } else {
      co_await self.mpb_read_line(src_owner, src_line + i, cl);
    }
    if (sum != nullptr) *sum = fold_line(*sum, cl);
    if (to_mem) {
      co_await self.mem_write_line(local_index + i * kCacheLineBytes, cl);
    } else {
      co_await self.mpb_write_line(dst_owner, dst_line + i, cl);
    }
  }
}

}  // namespace

sim::Task<void> put_mpb_to_mpb(scc::Core& self, MpbAddr dst, std::size_t src_line,
                               std::size_t lines, std::uint64_t* sum) {
  return transfer(self, scc::BulkKind::kPutMpbToMpb, self.chip().config().o_put_mpb,
                  dst.owner, dst.line, src_line, lines, sum);
}

sim::Task<void> put_mem_to_mpb(scc::Core& self, MpbAddr dst, std::size_t src_offset,
                               std::size_t lines, std::uint64_t* sum) {
  return transfer(self, scc::BulkKind::kPutMemToMpb, self.chip().config().o_put_mem,
                  dst.owner, dst.line, src_offset, lines, sum);
}

sim::Task<void> get_mpb_to_mpb(scc::Core& self, std::size_t dst_line, MpbAddr src,
                               std::size_t lines, std::uint64_t* sum) {
  return transfer(self, scc::BulkKind::kGetMpbToMpb, self.chip().config().o_get_mpb,
                  src.owner, src.line, dst_line, lines, sum);
}

sim::Task<void> get_mpb_to_mem(scc::Core& self, std::size_t dst_offset, MpbAddr src,
                               std::size_t lines, std::uint64_t* sum) {
  return transfer(self, scc::BulkKind::kGetMpbToMem, self.chip().config().o_get_mem,
                  src.owner, src.line, dst_offset, lines, sum);
}

std::uint64_t host_checksum_mem(scc::SccChip& chip, CoreId core,
                                std::size_t offset, std::size_t lines) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t i = 0; i < lines; ++i) {
    h = fold_line(h, chip.memory(core).load(offset + i * kCacheLineBytes));
  }
  return h;
}

}  // namespace ocb::rma
