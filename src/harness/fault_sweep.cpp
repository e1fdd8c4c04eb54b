#include "harness/fault_sweep.h"

#include <algorithm>
#include <memory>

#include "check/checker.h"
#include "common/require.h"
#include "common/rng.h"
#include "coll/registry.h"
#include "core/ft_ocbcast.h"
#include "fault/injector.h"
#include "harness/parallel.h"

namespace ocb::harness {

FaultRunOutcome run_fault_once(const FaultRunSpec& spec) {
  OCB_REQUIRE(spec.message_bytes > 0, "empty message");

  scc::SccChip chip(spec.config);
  fault::FaultInjector injector(chip, spec.plan);
  chip.add_observer(&injector);
  std::unique_ptr<check::RaceChecker> checker;
  if (spec.check_races || check::requested_by_env()) {
    checker = std::make_unique<check::RaceChecker>(chip);
    chip.add_observer(checker.get());
  }

  const std::unique_ptr<coll::Collective> algo =
      coll::make(spec.algorithm_name, chip, spec.params);
  // Only FT-OC-Bcast keeps per-core delivery reports.
  const auto* ft = dynamic_cast<const core::FtOcBcast*>(algo.get());
  const int parties = algo->parties();
  OCB_REQUIRE(spec.root >= 0 && spec.root < parties, "root out of range");

  std::vector<std::byte> pattern(spec.message_bytes);
  fill_pattern(pattern, spec.plan.seed ^ 0xc0ffee);
  auto root_region = chip.memory(spec.root).host_bytes(0, spec.message_bytes);
  std::copy(pattern.begin(), pattern.end(), root_region.begin());

  std::vector<sim::Time> finish(static_cast<std::size_t>(parties), 0);
  std::vector<bool> returned(static_cast<std::size_t>(parties), false);
  for (CoreId c = 0; c < parties; ++c) {
    chip.spawn(c, [&, c](scc::Core& me) -> sim::Task<void> {
      co_await algo->run(me, spec.root, 0, spec.message_bytes);
      finish[static_cast<std::size_t>(c)] = me.now();
      returned[static_cast<std::size_t>(c)] = true;
    });
  }

  const sim::RunResult run = chip.run(spec.max_events);

  FaultRunOutcome out;
  out.parties = parties;
  out.events = run.events_processed;
  out.max_queue_depth = run.max_queue_depth;
  out.counters = run.counters;
  out.stalled_processes = run.stalled_processes;
  out.stalled_details = run.stalled_details;
  out.injections = injector.stats();
  out.crashed = static_cast<int>(injector.stats().crashes_applied);
  out.survivors = parties - out.crashed;
  // Drained = the queue emptied, even if that took the budget's last event.
  out.drained = chip.engine().queue_size() == 0;

  auto is_crashed = [&](CoreId c) {
    for (const fault::FailStop& f : spec.plan.crashes) {
      if (f.core == c) return true;
    }
    return false;
  };

  sim::Time last = 0;
  bool all_returned = true;
  for (CoreId c = 0; c < parties; ++c) {
    if (is_crashed(c)) continue;
    const auto i = static_cast<std::size_t>(c);
    if (!returned[i]) {
      all_returned = false;
      continue;
    }
    last = std::max(last, finish[i]);
    if (ft != nullptr) {
      const core::DeliveryReport& rep = ft->report(c);
      if (rep.delivered) ++out.delivered;
      if (rep.gave_up) ++out.gave_up;
    } else {
      ++out.delivered;  // no report; returning = claim
    }
    const auto got = chip.memory(c).host_bytes(0, spec.message_bytes);
    if (std::equal(pattern.begin(), pattern.end(), got.begin())) {
      ++out.correct;
    }
  }
  if (all_returned) out.latency_us = sim::to_us(last);
  if (checker != nullptr) {
    out.race_violations = checker->total_detected();
    if (out.race_violations > 0) out.race_report = checker->report();
  }
  return out;
}

FaultSweepResult run_fault_sweep(FaultRunSpec spec,
                                 const std::vector<std::uint64_t>& seeds) {
  // Every replication owns its chip and injector, so seeds are independent;
  // fan out over the sweep pool. parallel_map returns in index (= seed)
  // order, so the merged result is bit-identical to the serial loop.
  std::vector<FaultRunOutcome> outcomes =
      parallel_map(seeds.size(), [&](std::size_t i) {
        FaultRunSpec s = spec;
        s.plan.seed = seeds[i];
        return run_fault_once(s);
      });

  FaultSweepResult out;
  out.seeds = seeds;
  for (FaultRunOutcome& o : outcomes) {
    if (o.all_survivors_correct()) ++out.runs_all_correct;
    out.outcomes.push_back(std::move(o));
  }
  return out;
}

}  // namespace ocb::harness
