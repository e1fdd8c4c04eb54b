#include "rma/nonblocking.h"

#include <algorithm>

#include "common/require.h"
#include "rma/rma.h"

namespace ocb::rma {

AsyncTwoSided::AsyncTwoSided(scc::SccChip& chip, TwoSidedLayout layout)
    : chip_(&chip), layout_(layout), n_(chip.topology().num_cores()) {
  layout_.validate();
  const auto pairs = static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
  send_seq_.assign(pairs, 0);
  recv_seq_.assign(pairs, 0);
}

std::uint64_t& AsyncTwoSided::send_seq(CoreId from, CoreId to) {
  chip_->topology().require_core(from);
  chip_->topology().require_core(to);
  return send_seq_[static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(to)];
}

std::uint64_t& AsyncTwoSided::recv_seq(CoreId from, CoreId to) {
  chip_->topology().require_core(from);
  chip_->topology().require_core(to);
  return recv_seq_[static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(to)];
}

AsyncTwoSided::State& AsyncTwoSided::state_for(Request& request) {
  OCB_REQUIRE(request.valid_, "empty request handle");
  OCB_REQUIRE(request.index_ < states_.size(), "stale request handle");
  return states_[request.index_];
}

AsyncTwoSided::Request AsyncTwoSided::isend(scc::Core& self, CoreId dst,
                                            std::size_t offset, std::size_t bytes) {
  OCB_REQUIRE(dst != self.id(), "send to self");
  OCB_REQUIRE(bytes > 0, "empty send");
  for (const State& other : states_) {
    OCB_REQUIRE(!(other.kind == Kind::kSend && other.owner == self.id() &&
                  other.peer == dst && other.stage != Stage::kDone),
                "one outstanding send per (source, destination) pair");
  }
  State s{Kind::kSend, Stage::kAwaitReady, self.id(), dst,
          offset,      cache_lines_for(bytes),        0,   false};
  s.seq = ++send_seq(self.id(), dst);
  states_.push_back(s);
  return Request(states_.size() - 1);
}

AsyncTwoSided::Request AsyncTwoSided::irecv(scc::Core& self, CoreId src,
                                            std::size_t offset, std::size_t bytes) {
  OCB_REQUIRE(src != self.id(), "recv from self");
  OCB_REQUIRE(bytes > 0, "empty recv");
  for (const State& other : states_) {
    OCB_REQUIRE(!(other.kind == Kind::kRecv && other.owner == self.id() &&
                  other.peer == src && other.stage != Stage::kDone),
                "one outstanding receive per (source, destination) pair");
  }
  State s{Kind::kRecv, Stage::kAwaitSent, self.id(), src,
          offset,      cache_lines_for(bytes),       0,   false};
  s.seq = ++recv_seq(src, self.id());
  states_.push_back(s);
  return Request(states_.size() - 1);
}

sim::Task<bool> AsyncTwoSided::test(scc::Core& self, Request& request) {
  State& s = state_for(request);
  OCB_REQUIRE(s.owner == self.id(), "request tested by a foreign core");
  while (s.stage != Stage::kDone) {
    const std::size_t chunk = std::min(s.lines_left, layout_.payload_lines);
    if (s.kind == Kind::kSend) {
      // Probe the partner's readiness once (one remote read).
      const FlagValue v =
          co_await read_flag(self, MpbAddr{s.peer, layout_.ready_line});
      if (v != pack_flag(s.owner, s.seq)) co_return false;
      co_await put_mem_to_mpb(self, MpbAddr{s.peer, layout_.payload_line}, s.cursor,
                              chunk);
      co_await set_flag(self, MpbAddr{s.peer, layout_.sent_line},
                        pack_flag(s.owner, s.seq));
    } else {
      if (!s.ready_posted) {
        // Announce readiness for this chunk (local write).
        co_await self.busy(self.chip().config().o_put_mpb);
        note_flag_release(self, MpbAddr{s.owner, layout_.ready_line},
                          pack_flag(s.peer, s.seq));
        co_await self.mpb_write_line(s.owner, layout_.ready_line,
                                     encode_flag(pack_flag(s.peer, s.seq)));
        s.ready_posted = true;
      }
      const FlagValue v =
          co_await read_flag(self, MpbAddr{s.owner, layout_.sent_line});
      if (v != pack_flag(s.peer, s.seq)) co_return false;
      co_await get_mpb_to_mem(self, s.cursor, MpbAddr{s.owner, layout_.payload_line},
                              chunk);
    }
    // Chunk complete; advance.
    s.lines_left -= chunk;
    s.cursor += chunk * kCacheLineBytes;
    if (s.lines_left == 0) {
      s.stage = Stage::kDone;
      break;
    }
    s.ready_posted = false;
    s.seq = s.kind == Kind::kSend ? ++send_seq(s.owner, s.peer)
                                  : ++recv_seq(s.peer, s.owner);
  }
  co_return true;
}

sim::Task<void> AsyncTwoSided::wait(scc::Core& self, Request& request) {
  for (;;) {
    // Park on the flag line the request is stalled on; the epoch capture
    // closes the probe/park window exactly as rma::wait_flag does.
    State& s = state_for(request);
    if (s.stage == Stage::kDone) co_return;
    const MpbAddr stall = s.kind == Kind::kSend
                              ? MpbAddr{s.peer, layout_.ready_line}
                              : MpbAddr{s.owner, layout_.sent_line};
    sim::Trigger& trigger = self.chip().mpb(stall.owner).line_trigger(stall.line);
    const std::uint64_t epoch = trigger.epoch();
    // NOTE: the awaited result lands in a local first — GCC 12
    // miscompiles `if (co_await ...)` conditions in coroutines.
    const bool completed = co_await test(self, request);
    if (completed) co_return;
    co_await trigger.wait_unless_changed(epoch);
  }
}

bool AsyncTwoSided::done(const Request& request) const {
  OCB_REQUIRE(request.valid_, "empty request handle");
  OCB_REQUIRE(request.index_ < states_.size(), "stale request handle");
  return states_[request.index_].stage == Stage::kDone;
}

}  // namespace ocb::rma
