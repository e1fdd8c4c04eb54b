#include "core/ocreduce.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/require.h"
#include "rma/flags.h"

namespace ocb::core {

namespace {

constexpr std::size_t kDoublesPerLine = kCacheLineBytes / sizeof(double);

double combine(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kMax:
      return std::max(a, b);
  }
  return a;
}

}  // namespace

const char* reduce_op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return "sum";
    case ReduceOp::kMin:
      return "min";
    case ReduceOp::kMax:
      return "max";
  }
  return "?";
}

OcReduce::OcReduce(scc::SccChip& chip, OcReduceOptions options)
    : chip_(&chip),
      options_([&] {
        options.parties = chip.resolve_parties(options.parties);
        return options;
      }()),
      layout_([&] {
        OCB_REQUIRE(options_.k >= 1 && options_.k <= options_.parties - 1,
                    "fan-out must be in [1, parties-1]");
        OCB_REQUIRE(options_.chunk_lines >= 1, "chunk must be at least one line");
        const TreeLayout layout{
            .base = options_.mpb_base_line,
            .done_slots = options_.k,
            .chunk_lines = options_.chunk_lines,
            .fence_rounds = rma::FlagBarrier::rounds_for(options_.parties)};
        OCB_REQUIRE(layout.fits(),
                    "OC-Reduce layout (k+1 flags + buffers + fence) exceeds "
                    "the 256-line MPB");
        return layout;
      }()),
      calls_(chip, layout_.fence_line(), options_.parties) {}

sim::Task<void> OcReduce::run(scc::Core& self, CoreId root, std::size_t in_offset,
                              std::size_t out_offset, std::size_t count,
                              ReduceOp op) {
  OCB_REQUIRE(self.id() < options_.parties, "core is not a participant");
  OCB_REQUIRE(root >= 0 && root < options_.parties, "root is not a participant");
  OCB_REQUIRE(count > 0, "empty reduction");
  OCB_REQUIRE(in_offset % kCacheLineBytes == 0 && out_offset % kCacheLineBytes == 0,
              "reduction buffers must be line-aligned");

  const KaryTree tree(options_.parties, options_.k, root);
  const CoreId me = self.id();
  const CoreId parent = tree.parent_of(me);
  const std::vector<CoreId> children = tree.children_of(me);
  const int my_slot = tree.child_position(me) - 1;

  const std::size_t chunk_elems = options_.chunk_lines * kDoublesPerLine;
  const std::size_t n_chunks = (count + chunk_elems - 1) / chunk_elems;
  const std::uint64_t base = calls_.claim(me, n_chunks);
  // Fence on a root change (core/pipeline.h; same hazard, mirrored).
  if (calls_.root_changed(me, root)) co_await calls_.fence(self);
  const std::size_t consumed = layout_.notify_line();

  std::vector<double> acc(chunk_elems);
  std::vector<double> incoming(kDoublesPerLine);

  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::uint64_t seq = base + c + 1;
    const std::uint64_t parity = (base + c) % 2;
    const std::size_t buffer = layout_.buffer_line(parity);
    const std::size_t elems = std::min(chunk_elems, count - c * chunk_elems);
    const std::size_t lines = (elems + kDoublesPerLine - 1) / kDoublesPerLine;
    const std::size_t chunk_byte0 = c * options_.chunk_lines * kCacheLineBytes;

    // 1. Own contribution: simulated reads from private memory (cache
    //    effects apply), values into the host-side accumulator.
    for (std::size_t i = 0; i < lines; ++i) {
      CacheLine cl;
      co_await self.mem_read_line(in_offset + chunk_byte0 + i * kCacheLineBytes, cl);
      std::memcpy(acc.data() + i * kDoublesPerLine, cl.bytes.data(), kCacheLineBytes);
    }

    // 2. Merge every child's staged chunk: poll its readyFlag (local), read
    //    the lines straight out of the child's MPB, merge in registers,
    //    release the child's buffer.
    self.set_stage("oc-reduce:merge");
    for (std::size_t j = 0; j < children.size(); ++j) {
      const CoreId child = children[j];
      co_await rma::wait_flag_at_least(
          self, rma::MpbAddr{me, layout_.done_line(static_cast<int>(j))}, seq);
      for (std::size_t i = 0; i < lines; ++i) {
        CacheLine cl;
        co_await self.mpb_read_line(child, buffer + i, cl);
        std::memcpy(incoming.data(), cl.bytes.data(), kCacheLineBytes);
        const std::size_t first = i * kDoublesPerLine;
        const std::size_t n = std::min(kDoublesPerLine, elems - std::min(elems, first));
        for (std::size_t e = 0; e < n; ++e) {
          acc[first + e] = combine(op, acc[first + e], incoming[e]);
        }
      }
      co_await rma::set_flag(self, rma::MpbAddr{child, consumed}, seq);
    }
    if (!children.empty()) {
      co_await self.busy(static_cast<sim::Duration>(children.size()) *
                         static_cast<sim::Duration>(elems) * options_.op_cost);
    }

    // 3. Deliver: the root writes the chunk to its output region; everyone
    //    else stages it for the parent (register-to-MPB writes) and
    //    announces.
    if (me == root) {
      for (std::size_t i = 0; i < lines; ++i) {
        CacheLine cl;
        std::memcpy(cl.bytes.data(), acc.data() + i * kDoublesPerLine,
                    kCacheLineBytes);
        co_await self.mem_write_line(out_offset + chunk_byte0 + i * kCacheLineBytes,
                                     cl);
      }
      continue;
    }
    // Reuse the buffer slot only once the parent consumed what was staged
    // there two chunks ago (first chunks: the previous call's end-wait
    // already proved the buffers free).
    self.set_stage("oc-reduce:stage");
    const std::uint64_t reuse_min = c >= 2 ? seq - 2 : 0;
    co_await rma::wait_flag_at_least(self, rma::MpbAddr{me, consumed}, reuse_min);
    for (std::size_t i = 0; i < lines; ++i) {
      CacheLine cl;
      std::memcpy(cl.bytes.data(), acc.data() + i * kDoublesPerLine, kCacheLineBytes);
      co_await self.mpb_write_line(me, buffer + i, cl);
    }
    co_await rma::set_flag(self, rma::MpbAddr{parent, layout_.done_line(my_slot)}, seq);
  }

  // Free-MPB guarantee: the parent has consumed every staged chunk before
  // this call returns (mirrors OcBcast's end-wait).
  if (me != root) {
    co_await rma::wait_flag_at_least(self, rma::MpbAddr{me, consumed},
                                     base + n_chunks);
  }
}

OcAllreduce::OcAllreduce(scc::SccChip& chip, OcAllreduceOptions options)
    : reduce_(chip,
              [&] {
                OcReduceOptions r;
                r.parties = options.parties;
                r.k = options.reduce_k;
                r.chunk_lines = options.chunk_lines;
                r.op_cost = options.op_cost;
                r.mpb_base_line = 0;
                return r;
              }()),
      bcast_(chip,
             {.parties = options.parties,
              .k = options.bcast_k,
              .chunk_lines = options.chunk_lines,
              // The reduce layout starts at line 0.
              .mpb_base_line = reduce_.layout().lines()}) {}

sim::Task<void> OcAllreduce::run(scc::Core& self, std::size_t in_offset,
                                 std::size_t out_offset, std::size_t count,
                                 ReduceOp op) {
  constexpr CoreId kRoot = 0;
  co_await reduce_.run(self, kRoot, in_offset, out_offset, count, op);
  co_await bcast_.run(self, kRoot, out_offset, count * sizeof(double));
}

}  // namespace ocb::core
