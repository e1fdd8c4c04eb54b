// OC-Bcast: pipelined tree broadcast on one-sided RMA (paper §4).
//
// Data moves down a propagation tree: each parent stages a chunk in its own
// MPB and its children *get* it in parallel (the k-ary tree's k chosen
// below the ~24-accessor MPB contention threshold of §3.3). Children learn
// of a new chunk through a binary notification tree inside each {parent,
// children} group, and report consumption through per-child doneFlags in
// the parent's MPB. Messages larger than a chunk are pipelined; with double
// buffering (two half-MPB buffers of 96 lines, §4.2) a parent fills one
// buffer while children drain the other.
//
// This is the only OC-Bcast chunk loop. It runs over a per-core TreePlan
// (core/tree.h): the k-ary tree of §4.1 for "ocbcast", or the die-aware
// tree of core/hier_bcast.h for "hier-ocbcast". The MPB layout, the
// absolute chunk sequence numbers and the root-change fence are the
// family's shared ones (core/pipeline.h).
#pragma once

#include <cstdint>

#include "coll/collective.h"
#include "core/pipeline.h"
#include "core/tree.h"
#include "scc/chip.h"

namespace ocb::core {

/// Honors every coll::Params field except observed_fault_rate and
/// adaptive_table_json; die_k only over the die-aware tree, and
/// sequential_notification only over the k-ary tree (the die-aware tree
/// always notifies sequentially).
class OcBcast final : public coll::Collective {
 public:
  /// The tree the chunk loop runs over.
  enum class Tree {
    kKary,      ///< "ocbcast": k-ary tree over core ids (core/tree.h)
    kDieAware,  ///< "hier-ocbcast": die-aware tree (core/hier_bcast.h)
  };

  OcBcast(scc::SccChip& chip, const coll::Params& params = {},
          Tree tree = Tree::kKary);

  std::string name() const override;
  int parties() const override { return params_.parties; }
  sim::Task<void> run(scc::Core& self, CoreId root, std::size_t offset,
                      std::size_t bytes) override;

  /// MPB layout: D = k done slots, k + die_k over the die-aware tree.
  const TreeLayout& layout() const { return layout_; }

 private:
  TreePlan plan_for(CoreId me, CoreId root) const;
  sim::Task<void> wait_children_done(scc::Core& self, const TreePlan& plan,
                                     std::uint64_t minimum);

  scc::SccChip* chip_;
  coll::Params params_;
  Tree tree_;
  TreeLayout layout_;
  CallSequence calls_;
};

}  // namespace ocb::core
