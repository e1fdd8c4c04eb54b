#include "core/ipi_notifier.h"

#include "common/require.h"

namespace ocb::core {

IpiNotifier::IpiNotifier(const scc::SccChip& chip, int parties)
    : parties_(chip.resolve_parties(parties)) {}

sim::Task<void> IpiNotifier::forward(scc::Core& self, CoreId root) {
  const KaryTree tree(parties_, /*k=*/2, root);
  for (CoreId child : tree.children_of(self.id())) {
    co_await self.send_interrupt(child);
  }
}

sim::Task<void> IpiNotifier::notify(scc::Core& root) {
  OCB_REQUIRE(root.id() < parties_, "core is not a participant");
  co_await forward(root, root.id());
}

sim::Task<void> IpiNotifier::await(scc::Core& self, CoreId root) {
  OCB_REQUIRE(self.id() < parties_ && self.id() != root,
              "await is for non-root participants");
  co_await self.wait_interrupt();
  co_await forward(self, root);
}

sim::Task<bool> IpiNotifier::try_await(scc::Core& self, CoreId root) {
  OCB_REQUIRE(self.id() < parties_ && self.id() != root,
              "try_await is for non-root participants");
  // Local first: GCC 12 miscompiles `co_await` in an if-condition.
  const bool taken = co_await self.poll_interrupt();
  if (!taken) co_return false;
  co_await forward(self, root);
  co_return true;
}

}  // namespace ocb::core
