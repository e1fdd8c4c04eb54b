#include "core/binomial.h"

#include "common/require.h"

namespace ocb::core {

BinomialBcast::BinomialBcast(scc::SccChip& chip, const coll::Params& params)
    : parties_(chip.resolve_parties(params.parties)),
      twosided_(std::make_unique<rma::TwoSided>(chip)) {}

sim::Task<void> BinomialBcast::run(scc::Core& self, CoreId root, std::size_t offset,
                                   std::size_t bytes) {
  const int p = parties_;
  OCB_REQUIRE(self.id() < p, "core is not a participant");
  OCB_REQUIRE(root >= 0 && root < p, "root is not a participant");
  OCB_REQUIRE(bytes > 0, "empty broadcast");

  const int rel = (self.id() - root + p) % p;
  auto absolute = [&](int rank) { return (root + rank) % p; };

  // Receive phase: the set bit found first is the distance to the parent.
  self.set_stage("binomial:recv");
  int mask = 1;
  while (mask < p) {
    if ((rel & mask) != 0) {
      co_await twosided_->recv(self, absolute(rel - mask), offset, bytes);
      break;
    }
    mask <<= 1;
  }
  // Send phase: forward to progressively nearer sub-roots.
  self.set_stage("binomial:send");
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (rel + mask < p) {
      co_await twosided_->send(self, absolute(rel + mask), offset, bytes);
    }
  }
}

}  // namespace ocb::core
