#include "core/scatter_allgather.h"

#include <algorithm>

#include "common/require.h"

namespace ocb::core {

ScatterAllgatherBcast::ScatterAllgatherBcast(scc::SccChip& chip,
                                             const coll::Params& params)
    : parties_(chip.resolve_parties(params.parties)),
      twosided_(std::make_unique<rma::TwoSided>(chip)) {}

sim::Task<void> ScatterAllgatherBcast::run(scc::Core& self, CoreId root,
                                           std::size_t offset, std::size_t bytes) {
  const int p = parties_;
  OCB_REQUIRE(self.id() < p, "core is not a participant");
  OCB_REQUIRE(root >= 0 && root < p, "root is not a participant");
  OCB_REQUIRE(bytes > 0, "empty broadcast");

  const int rel = (self.id() - root + p) % p;
  auto absolute = [&](int rank) { return (root + rank) % p; };

  const std::size_t m_lines = cache_lines_for(bytes);
  const std::size_t slice_bytes =
      ((m_lines + static_cast<std::size_t>(p) - 1) / static_cast<std::size_t>(p)) *
      kCacheLineBytes;
  // Byte extent of the contiguous slice range [first, last).
  auto range_begin = [&](int first) {
    return std::min(bytes, static_cast<std::size_t>(first) * slice_bytes);
  };
  auto range_bytes = [&](int first, int last) {
    return std::min(bytes, static_cast<std::size_t>(last) * slice_bytes) -
           range_begin(first);
  };

  // --- scatter phase ------------------------------------------------------
  self.set_stage("s-ag:scatter");
  int lo = 0;
  int hi = p;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (rel < mid) {
      if (rel == lo && range_bytes(mid, hi) > 0) {
        co_await twosided_->send(self, absolute(mid), offset + range_begin(mid),
                                 range_bytes(mid, hi));
      }
      hi = mid;
    } else {
      if (rel == mid && range_bytes(mid, hi) > 0) {
        co_await twosided_->recv(self, absolute(lo), offset + range_begin(mid),
                                 range_bytes(mid, hi));
      }
      lo = mid;
    }
  }

  // --- allgather phase (shift ring) ----------------------------------------
  self.set_stage("s-ag:allgather");
  const CoreId left = absolute((rel - 1 + p) % p);
  const CoreId right = absolute((rel + 1) % p);
  for (int t = 1; t < p; ++t) {
    const int send_slice = (rel + t - 1) % p;
    const int recv_slice = (rel + t) % p;
    const std::size_t send_n = range_bytes(send_slice, send_slice + 1);
    const std::size_t recv_n = range_bytes(recv_slice, recv_slice + 1);
    auto do_send = [&]() -> sim::Task<void> {
      if (send_n > 0) {
        co_await twosided_->send(self, left, offset + range_begin(send_slice), send_n);
      }
    };
    auto do_recv = [&]() -> sim::Task<void> {
      if (recv_n > 0) {
        co_await twosided_->recv(self, right, offset + range_begin(recv_slice), recv_n);
      }
    };
    if (rel % 2 == 0) {
      co_await do_send();
      co_await do_recv();
    } else {
      co_await do_recv();
      co_await do_send();
    }
  }
}

}  // namespace ocb::core
