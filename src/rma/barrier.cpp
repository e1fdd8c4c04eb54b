#include "rma/barrier.h"

#include "common/require.h"

namespace ocb::rma {

FlagBarrier::FlagBarrier(scc::SccChip& chip, std::size_t base_line, int parties)
    : chip_(&chip),
      base_line_(base_line),
      parties_(chip.resolve_parties(parties, /*minimum=*/1)),
      rounds_(rounds_for(parties_)),
      epoch_(static_cast<std::size_t>(parties_), 0) {
  OCB_REQUIRE(base_line + static_cast<std::size_t>(rounds_) <= kMpbCacheLines,
              "barrier flag lines exceed the MPB");
}

int FlagBarrier::rounds_for(int parties) {
  int r = 0;
  int span = 1;
  while (span < parties) {
    span *= 2;
    ++r;
  }
  return r;
}

sim::Task<void> FlagBarrier::wait(scc::Core& self) {
  OCB_REQUIRE(self.id() < parties_, "core is not a barrier party");
  const std::uint64_t e = ++epoch_[static_cast<std::size_t>(self.id())];
  const int p = parties_;
  for (int r = 0; r < rounds_; ++r) {
    const CoreId to = (self.id() + (1 << r)) % p;
    const std::size_t line = base_line_ + static_cast<std::size_t>(r);
    co_await set_flag(self, MpbAddr{to, line}, e);
    co_await wait_flag_at_least(self, MpbAddr{self.id(), line}, e);
  }
}

}  // namespace ocb::rma
