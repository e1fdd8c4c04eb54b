// SPMD k-means on the simulated SCC — a realistic "application" built on
// the library's public API, the way the paper's introduction motivates
// fast broadcast: every round the root broadcasts the current centroids to
// all 48 cores with OC-Bcast, each core assigns its private points and
// computes partial sums (charged as compute time), and partial results
// flow back through the two-sided layer for the root to combine.
//
// All communication is simulated byte-accurately: the centroids each
// worker uses really did travel through MPBs, and the partial sums really
// were sent back — a wrong protocol would produce wrong clusters, not just
// wrong timings.
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/format.h"
#include "common/rng.h"
#include "core/ocbcast.h"
#include "rma/twosided.h"
#include "sim/condition.h"

using namespace ocb;

namespace {

constexpr int kClusters = 4;
constexpr int kDims = 8;
constexpr int kPointsPerCore = 256;
constexpr int kRounds = 6;

// Private-memory layout per core (line-aligned regions).
constexpr std::size_t kCentroidBytes = kClusters * kDims * sizeof(double);
constexpr std::size_t kPartialBytes =
    kClusters * kDims * sizeof(double) + kClusters * sizeof(double);
constexpr std::size_t kCentroidOffset = 0;
constexpr std::size_t kPartialOffset = 4096;
// Root-side inbox: one partial slot per worker.
constexpr std::size_t kInboxOffset = 8192;
constexpr std::size_t kInboxStride = 1024;

struct AppState {
  std::vector<std::array<double, kDims>> points[kNumCores];
  double compute_us[kNumCores] = {};
  double bcast_us[kNumCores] = {};
  double reduce_us[kNumCores] = {};
};

void generate_points(AppState& app, std::uint64_t seed) {
  // Four well-separated blobs; each core gets a private sample of all.
  const double centers[kClusters][2] = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  for (CoreId c = 0; c < kNumCores; ++c) {
    Xoshiro256 rng(seed + static_cast<std::uint64_t>(c));
    app.points[c].resize(kPointsPerCore);
    for (auto& p : app.points[c]) {
      const auto blob = static_cast<std::size_t>(rng.next_below(kClusters));
      for (int d = 0; d < kDims; ++d) {
        const double base = d < 2 ? centers[blob][d] : 0.0;
        p[static_cast<std::size_t>(d)] = base + (rng.next_double() - 0.5);
      }
    }
  }
}

// Assigns points to the given centroids and fills partial sums/counts.
// Returns the number of floating-point distance terms (to charge compute).
std::size_t compute_partials(const std::vector<std::array<double, kDims>>& pts,
                             const double* centroids, double* sums,
                             double* counts) {
  std::memset(sums, 0, kClusters * kDims * sizeof(double));
  std::memset(counts, 0, kClusters * sizeof(double));
  for (const auto& p : pts) {
    int best = 0;
    double best_d = 1e300;
    for (int k = 0; k < kClusters; ++k) {
      double dist = 0;
      for (int d = 0; d < kDims; ++d) {
        const double delta = p[static_cast<std::size_t>(d)] - centroids[k * kDims + d];
        dist += delta * delta;
      }
      if (dist < best_d) {
        best_d = dist;
        best = k;
      }
    }
    for (int d = 0; d < kDims; ++d) {
      sums[best * kDims + d] += p[static_cast<std::size_t>(d)];
    }
    counts[best] += 1.0;
  }
  return pts.size() * kClusters * kDims;
}

sim::Task<void> core_program(scc::Core& me, core::OcBcast& bcast,
                             rma::TwoSided& twosided, sim::Rendezvous& sync,
                             AppState& app) {
  const CoreId root = 0;
  for (int round = 0; round < kRounds; ++round) {
    co_await sync.arrive();
    // 1. Centroid broadcast (root's buffer was updated last round).
    sim::Time t0 = me.now();
    co_await bcast.run(me, root, kCentroidOffset, kCentroidBytes);
    app.bcast_us[me.id()] += sim::to_us(me.now() - t0);

    // 2. Local assignment + partial sums; ~1.2 ns per FLOP-ish term on the
    //    P54C is charged as busy time.
    t0 = me.now();
    const auto centroid_bytes =
        me.chip().memory(me.id()).host_bytes(kCentroidOffset, kCentroidBytes);
    double centroids[kClusters * kDims];
    std::memcpy(centroids, centroid_bytes.data(), kCentroidBytes);
    auto partial =
        me.chip().memory(me.id()).host_bytes(kPartialOffset, kPartialBytes);
    double sums[kClusters * kDims];
    double counts[kClusters];
    const std::size_t terms =
        compute_partials(app.points[me.id()], centroids, sums, counts);
    std::memcpy(partial.data(), sums, sizeof sums);
    std::memcpy(partial.data() + sizeof sums, counts, sizeof counts);
    co_await me.busy(static_cast<sim::Duration>(terms) * 1200);
    app.compute_us[me.id()] += sim::to_us(me.now() - t0);

    // 3. Reduction: workers send partials to the root; the root combines
    //    and writes the new centroids into its broadcast buffer.
    t0 = me.now();
    if (me.id() != root) {
      co_await twosided.send(me, root, kPartialOffset, kPartialBytes);
    } else {
      double total_sums[kClusters * kDims];
      double total_counts[kClusters];
      std::memcpy(total_sums, sums, sizeof sums);
      std::memcpy(total_counts, counts, sizeof counts);
      for (CoreId w = 1; w < kNumCores; ++w) {
        const std::size_t slot =
            kInboxOffset + static_cast<std::size_t>(w) * kInboxStride;
        co_await twosided.recv(me, w, slot, kPartialBytes);
        const auto in = me.chip().memory(root).host_bytes(slot, kPartialBytes);
        double wsums[kClusters * kDims];
        double wcounts[kClusters];
        std::memcpy(wsums, in.data(), sizeof wsums);
        std::memcpy(wcounts, in.data() + sizeof wsums, sizeof wcounts);
        for (int i = 0; i < kClusters * kDims; ++i) total_sums[i] += wsums[i];
        for (int k = 0; k < kClusters; ++k) total_counts[k] += wcounts[k];
      }
      double next[kClusters * kDims];
      for (int k = 0; k < kClusters; ++k) {
        for (int d = 0; d < kDims; ++d) {
          next[k * kDims + d] =
              total_counts[k] > 0 ? total_sums[k * kDims + d] / total_counts[k] : 0;
        }
      }
      auto out = me.chip().memory(root).host_bytes(kCentroidOffset, kCentroidBytes);
      std::memcpy(out.data(), next, sizeof next);
      std::printf("round %d: centroid[0] = (%.2f, %.2f), centroid[3] = (%.2f, %.2f)\n",
                  round, next[0], next[1], next[3 * kDims], next[3 * kDims + 1]);
    }
    app.reduce_us[me.id()] += sim::to_us(me.now() - t0);
  }
}

}  // namespace

int main() {
  scc::SccChip chip;
  // OC-Bcast owns lines 0..199 (k=7, mpb_base_line 0).
  core::OcBcast bcast(chip);
  rma::TwoSidedLayout ts_layout;
  ts_layout.ready_line = 200;  // keep clear of the OC-Bcast layout
  ts_layout.sent_line = 201;
  ts_layout.payload_line = 202;
  ts_layout.payload_lines = 54;
  rma::TwoSided twosided(chip, ts_layout);
  sim::Rendezvous sync(chip.engine(), kNumCores);

  AppState app;
  generate_points(app, 0xbeef);

  // Initial centroids: a deliberately bad guess (all near the origin).
  {
    double init[kClusters * kDims] = {};
    for (int k = 0; k < kClusters; ++k) {
      // One rough guess per quadrant so no blob starts orphaned.
      init[k * kDims] = (k % 2) * 8 + 1;
      init[k * kDims + 1] = (k / 2) * 8 + 1;
    }
    auto out = chip.memory(0).host_bytes(kCentroidOffset, kCentroidBytes);
    std::memcpy(out.data(), init, sizeof init);
  }

  for (CoreId c = 0; c < kNumCores; ++c) {
    chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
      co_await core_program(me, bcast, twosided, sync, app);
    });
  }
  const sim::RunResult run = chip.run();
  if (!run.completed()) {
    std::fprintf(stderr, "SPMD program deadlocked\n");
    return 1;
  }

  double bcast_us = 0, compute_us = 0, reduce_us = 0;
  for (CoreId c = 0; c < kNumCores; ++c) {
    bcast_us += app.bcast_us[c];
    compute_us += app.compute_us[c];
    reduce_us += app.reduce_us[c];
  }
  std::printf("\n%d rounds of 48-core k-means on %d points "
              "(%d clusters, %d dims)\n",
              kRounds, kNumCores * kPointsPerCore, kClusters, kDims);
  std::printf("total simulated time: %.2f ms over %llu events\n",
              sim::to_seconds(run.end_time) * 1e3,
              static_cast<unsigned long long>(run.events_processed));
  std::printf("per-core-average time split per round: broadcast %.1f us, "
              "compute %.1f us, reduce %.1f us\n",
              bcast_us / kNumCores / kRounds, compute_us / kNumCores / kRounds,
              reduce_us / kNumCores / kRounds);
  std::printf("expected centroids near (0,0), (10,0), (0,10), (10,10)\n");
  return 0;
}
