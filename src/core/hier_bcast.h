// The die-aware tree "hier-ocbcast" runs OC-Bcast over.
//
// On a single-die mesh every MPB-to-MPB hop costs the same per router, so
// the flat k-ary OC-Bcast tree is oblivious to placement. On a multi-die
// topology (noc::Topology with dies_x*dies_y > 1) links that cross a die
// boundary ride the interposer and pay extra latency and occupancy per
// packet — a flat tree scatters die crossings over arbitrary parent/child
// pairs and pays the interposer toll many times per chunk.
//
// The die-aware tree restructures propagation around the die boundary:
//
//   * one designated *leader* per participating die (the broadcast root in
//     its own die, the lowest participating core id elsewhere);
//   * leaders form a small k-ary relay tree over the dies — the only edges
//     that cross the interposer, one get per (die, chunk);
//   * inside each die the leader heads a die-local k-ary tree whose every
//     edge stays on-die.
//
// The registry's "hier-ocbcast" is core::OcBcast over this tree: the same
// chunk loop, flags, doneFlags and root-change fence as "ocbcast", with one
// simplification — parents notify their children directly (sequential
// notification) rather than through the binary in-group notification tree.
// Fan-outs here are small (intra-die trees span one die; the die tree spans
// the die count), so the latency argument of §4.1 carries little weight,
// and the uniform structure keeps slot assignment trivial. Intra-die
// children report in done slots 0..k-1 and relay children in k..k+die_k-1,
// so the layout (core/pipeline.h) has D = k + die_k.
//
// On a single-die topology the die tree is empty and this degrades to plain
// OC-Bcast with sequential notification (plus die_k idle done lines).
#pragma once

#include "core/tree.h"
#include "noc/topology.h"

namespace ocb::core {

/// `me`'s part of the die-aware tree under `root` over cores
/// 0..parties-1 of `topo`, with intra-die fan-out `k` and relay fan-out
/// `die_k` (each clamped to its subtree). Built in O(dies + fan-out +
/// log cores) from the topology's die table (no scan of the chip), so
/// planning a broadcast on every core is linear in the chip.
TreePlan plan_die_aware(const noc::Topology& topo, int parties, int k,
                        int die_k, CoreId me, CoreId root);

}  // namespace ocb::core
