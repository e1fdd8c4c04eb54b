// OC-Reduce / OC-Allreduce: the paper's conclusion proposes extending the
// OC-Bcast approach to other collective operations — this is that
// extension for reduction, built as the mirror image of OC-Bcast.
//
// Data flows leaves -> root through the same k-ary tree: each core stages
// its *combined* chunk (its own input merged with all of its children's
// contributions) in its MPB, double-buffered; the parent reads children's
// staged chunks line-by-line straight into registers (one-sided remote
// reads — no intermediate copies), merges, and stages the result for its
// own parent. Pipelining over 96-line chunks works exactly as in OC-Bcast.
//
// Synchronization mirrors OC-Bcast with the roles swapped:
//   * readyFlag[j] (k lines, parent's MPB, written by child j): "my chunk
//     seq is staged" — the parent polls locally;
//   * consumedFlag (1 line, child's MPB, written by the parent): "I have
//     read your chunk seq" — gates the child's buffer reuse.
// Values are absolute chunk sequence numbers, monotone across calls, and a
// ROOT change fences exactly as in OC-Bcast (core/pipeline.h).
//
// MPB layout: the family's (core/pipeline.h) with D = k and B = 2, the same
// footprint as OC-Bcast; the notify line carries consumedFlag and done
// slot j carries child j's readyFlag.
//
// Elements are doubles; the arithmetic happens host-side at full precision
// while each merge is charged as compute time per element. A parent's cost
// per chunk grows with k (it ingests k staged chunks), so — unlike
// broadcast — *small* fan-outs maximize reduction throughput; the
// extension bench quantifies this.
#pragma once

#include <array>

#include "core/ocbcast.h"
#include "core/pipeline.h"

namespace ocb::core {

enum class ReduceOp { kSum, kMin, kMax };

/// Human-readable operator name ("sum", "min", "max").
const char* reduce_op_name(ReduceOp op);

struct OcReduceOptions {
  int parties = 0;  ///< 0 = every core of the chip
  int k = 2;  ///< reduction favours small fan-outs (see header comment)
  std::size_t chunk_lines = 96;
  std::size_t mpb_base_line = 0;
  /// Per-element merge cost charged to the combining core.
  sim::Duration op_cost = 15 * sim::kNanosecond;
};

class OcReduce {
 public:
  OcReduce(scc::SccChip& chip, OcReduceOptions options = {});

  /// Matched collective: every participant contributes `count` doubles at
  /// [in_offset, +count*8) of its private memory; the elementwise result
  /// lands at [out_offset, +count*8) of the ROOT's private memory only.
  /// in/out regions must be line-aligned and may alias only if identical.
  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t in_offset,
                      std::size_t out_offset, std::size_t count, ReduceOp op);

  const OcReduceOptions& options() const { return options_; }
  const TreeLayout& layout() const { return layout_; }

 private:
  scc::SccChip* chip_;
  OcReduceOptions options_;
  TreeLayout layout_;
  CallSequence calls_;
};

/// Allreduce = OC-Reduce to the root + OC-Bcast of the result; both
/// collectives share the chip but use disjoint MPB layouts.
struct OcAllreduceOptions {
  int parties = 0;  ///< 0 = every core of the chip
  int reduce_k = 2;
  int bcast_k = 7;
  /// Both layouts must fit the MPB together, so the chunks are halved.
  std::size_t chunk_lines = 48;
  sim::Duration op_cost = 15 * sim::kNanosecond;
};

class OcAllreduce {
 public:
  OcAllreduce(scc::SccChip& chip, OcAllreduceOptions options = {});

  /// Every participant's [out_offset, +count*8) receives the elementwise
  /// reduction of all [in_offset, +count*8) regions.
  sim::Task<void> run(scc::Core& self, std::size_t in_offset,
                      std::size_t out_offset, std::size_t count, ReduceOp op);

 private:
  OcReduce reduce_;
  OcBcast bcast_;
};

}  // namespace ocb::core
