#include "coll/adaptive.h"

#include <string>

#include "common/require.h"
#include "mem/mpb.h"
#include "scc/chip.h"

namespace ocb::coll {

AdaptiveBcast::AdaptiveBcast(scc::SccChip& chip, const Params& params)
    : chip_(&chip),
      params_(resolved(params, chip)),
      table_(params.adaptive_table_json.empty()
                 ? DecisionTable::baked_in()
                 : DecisionTable::from_json(params.adaptive_table_json)),
      quiesce_(chip.engine()) {
  OCB_REQUIRE(params_.mpb_base_line == 0,
              "adaptive broadcast owns the whole MPB (mpb_base_line must be "
              "0; it cannot run inside a service slot lease)");
  OCB_REQUIRE(params_.observed_fault_rate >= 0.0 &&
                  params_.observed_fault_rate <= 1.0,
              "observed_fault_rate out of [0,1]");
  // The catch-all rule bounds the party counts every lookup can serve.
  OCB_REQUIRE(params_.parties <= table_.rules().back().max_parties,
              "adaptive broadcast: " + std::to_string(params_.parties) +
                  " parties exceed the decision table's catch-all (" +
                  std::to_string(table_.rules().back().max_parties) + ")");
}

sim::Task<void> AdaptiveBcast::run(scc::Core& self, CoreId root,
                                   std::size_t offset, std::size_t bytes) {
  const std::size_t lines = cache_lines_for(bytes);
  const Choice& choice =
      table_.lookup(lines, params_.parties, params_.observed_fault_rate);
  const std::string key = choice.key();

  // Quiesce-and-switch. Flags in the OC-Bcast family are absolute monotone
  // sequence numbers, so a freshly constructed delegate must start from a
  // clean MPB; and a laggard of the previous round may still be inside the
  // old delegate when the first caller of the next round arrives here. The
  // first arriver with nobody in flight scrubs and swaps; everyone else
  // waits for its fire() (or, mid-stream, for the last laggard's).
  while (delegate_key_ != key) {
    if (active_ == 0) {
      for (CoreId c = 0; c < chip_->topology().num_cores(); ++c) {
        chip_->mpb(c).host_clear_lines(0, kMpbCacheLines);
      }
      delegate_ = make(choice.algorithm, *chip_, choice.apply(params_));
      delegate_key_ = key;
      quiesce_.fire();
      break;
    }
    co_await quiesce_.wait();
  }

  if (self.id() == root) selections_.push_back({lines, choice});

  ++active_;
  co_await delegate_->run(self, root, offset, bytes);
  if (--active_ == 0) quiesce_.fire();
}

}  // namespace ocb::coll
