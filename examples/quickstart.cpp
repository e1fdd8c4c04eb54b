// Quickstart: broadcast one message across the simulated SCC with
// OC-Bcast and verify every core received it.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The walk-through below is the minimal end-to-end use of the library:
// assemble a chip, create an algorithm, seed the root's private memory,
// spawn one coroutine per core, run the event loop, inspect results.
#include <cstdio>
#include <cstring>

#include "core/ocbcast.h"
#include "sim/condition.h"

using namespace ocb;

int main() {
  // 1. A simulated SCC with the paper's default timing (Table 1).
  scc::SccChip chip;

  // 2. OC-Bcast with the paper's preferred fan-out k = 7 and 96-line
  //    double-buffered chunks.
  core::OcBcast bcast(chip, coll::Params{.k = 7});

  // 3. Seed the root's private off-chip memory with a message.
  //    (host_bytes is zero-simulated-cost setup access.)
  const char message[] =
      "OC-Bcast: pipelined k-ary tree broadcast over on-chip RMA (SPAA'12)";
  const std::size_t bytes = sizeof message;
  const CoreId root = 0;
  auto seed = chip.memory(root).host_bytes(0, bytes);
  std::memcpy(seed.data(), message, bytes);

  // 4. Every core calls the collective with matching arguments.
  sim::Time finish[kNumCores] = {};
  for (CoreId c = 0; c < kNumCores; ++c) {
    chip.spawn(c, [&bcast, &finish, root, bytes](scc::Core& me) -> sim::Task<void> {
      co_await bcast.run(me, root, /*offset=*/0, bytes);
      finish[me.id()] = me.now();
    });
  }

  // 5. Run the discrete-event simulation to completion.
  const sim::RunResult run = chip.run();
  if (!run.completed()) {
    std::fprintf(stderr, "broadcast deadlocked!\n");
    return 1;
  }

  // 6. Inspect: delivered bytes and the latency profile.
  int delivered = 0;
  for (CoreId c = 0; c < kNumCores; ++c) {
    const auto got = chip.memory(c).host_bytes(0, bytes);
    if (std::memcmp(got.data(), message, bytes) == 0) ++delivered;
  }
  sim::Time last = 0;
  for (sim::Time t : finish) last = std::max(last, t);

  std::printf("message: \"%s\"\n", message);
  std::printf("delivered intact on %d/%d cores\n", delivered, kNumCores);
  std::printf("broadcast latency (last core return): %.2f us\n", sim::to_us(last));
  std::printf("root returned at %.2f us; simulated %llu events\n",
              sim::to_us(finish[root]),
              static_cast<unsigned long long>(run.events_processed));
  return delivered == kNumCores ? 0 : 1;
}
