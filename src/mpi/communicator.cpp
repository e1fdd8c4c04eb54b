#include "mpi/communicator.h"

#include <cstring>
#include <vector>

#include "common/require.h"

namespace ocb::mpi {

namespace {
/// Per-element cost of the root's reduction adds (double add + loop on the
/// P54C).
constexpr sim::Duration kAddCost = 15 * sim::kNanosecond;
}  // namespace

Communicator::Communicator(scc::SccChip& chip, int size)
    : chip_(&chip), size_(chip.resolve_parties(size)) {
  bcast_ = std::make_unique<core::OcBcast>(
      chip, coll::Params{.parties = size_, .k = std::min(7, size_ - 1)});
  // Stack the remaining layouts behind whatever OC-Bcast occupies from
  // line 0 (including its root-change fence lines).
  const std::size_t barrier_base = bcast_->layout().lines();
  barrier_ = std::make_unique<rma::FlagBarrier>(chip, barrier_base, size_);
  rma::TwoSidedLayout layout;
  layout.ready_line = barrier_base + static_cast<std::size_t>(barrier_->rounds());
  layout.sent_line = layout.ready_line + 1;
  layout.payload_line = layout.sent_line + 1;
  OCB_REQUIRE(layout.payload_line + 16 <= kMpbCacheLines,
              "communicator layouts leave no usable two-sided payload space");
  layout.payload_lines = kMpbCacheLines - layout.payload_line;
  twosided_ = std::make_unique<rma::TwoSided>(chip, layout);
}

sim::Task<void> Communicator::send(scc::Core& self, int dst, std::size_t offset,
                                   std::size_t bytes) {
  OCB_REQUIRE(dst >= 0 && dst < size_, "destination rank out of range");
  co_await twosided_->send(self, dst, offset, bytes);
}

sim::Task<void> Communicator::recv(scc::Core& self, int src, std::size_t offset,
                                   std::size_t bytes) {
  OCB_REQUIRE(src >= 0 && src < size_, "source rank out of range");
  co_await twosided_->recv(self, src, offset, bytes);
}

sim::Task<void> Communicator::bcast(scc::Core& self, int root, std::size_t offset,
                                    std::size_t bytes) {
  co_await bcast_->run(self, root, offset, bytes);
}

sim::Task<void> Communicator::barrier(scc::Core& self) {
  co_await barrier_->wait(self);
}

sim::Task<void> Communicator::gather(scc::Core& self, int root,
                                     std::size_t send_offset,
                                     std::size_t recv_offset,
                                     std::size_t bytes_per_rank) {
  OCB_REQUIRE(root >= 0 && root < size_, "root rank out of range");
  OCB_REQUIRE(bytes_per_rank > 0, "empty gather");
  if (self.id() != root) {
    co_await twosided_->send(self, root, send_offset, bytes_per_rank);
    co_return;
  }
  // Contributions land at a line-aligned stride (the RMA granularity).
  const std::size_t stride = gather_stride(bytes_per_rank);
  // The root's own contribution moves through memory at transaction cost.
  const std::size_t own_dst = recv_offset + static_cast<std::size_t>(root) * stride;
  for (std::size_t i = 0; i < cache_lines_for(bytes_per_rank); ++i) {
    CacheLine cl;
    co_await self.mem_read_line(send_offset + i * kCacheLineBytes, cl);
    co_await self.mem_write_line(own_dst + i * kCacheLineBytes, cl);
  }
  for (int r = 0; r < size_; ++r) {
    if (r == root) continue;
    co_await twosided_->recv(self, r, recv_offset + static_cast<std::size_t>(r) * stride,
                             bytes_per_rank);
  }
}

sim::Task<void> Communicator::reduce_sum(scc::Core& self, int root,
                                         std::size_t offset, std::size_t count,
                                         std::size_t scratch_offset) {
  OCB_REQUIRE(count > 0, "empty reduction");
  const std::size_t bytes = count * sizeof(double);
  co_await gather(self, root, offset, scratch_offset, bytes);
  if (self.id() != root) co_return;
  const std::size_t stride = gather_stride(bytes);
  // Combine on the root: read each rank's contribution from the scratch
  // region (host-visible — the data genuinely arrived there through the
  // simulated interconnect) and charge the adds as compute.
  std::vector<double> acc(count, 0.0);
  for (int r = 0; r < size_; ++r) {
    const auto in = chip_->memory(root).host_bytes(
        scratch_offset + static_cast<std::size_t>(r) * stride, bytes);
    for (std::size_t i = 0; i < count; ++i) {
      double v;
      std::memcpy(&v, in.data() + i * sizeof(double), sizeof v);
      acc[i] += v;
    }
  }
  co_await self.busy(static_cast<sim::Duration>(size_) *
                     static_cast<sim::Duration>(count) * kAddCost);
  auto out = chip_->memory(root).host_bytes(offset, bytes);
  std::memcpy(out.data(), acc.data(), bytes);
}

}  // namespace ocb::mpi
