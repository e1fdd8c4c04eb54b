// Extension benches — the collectives built beyond the paper, quantifying
// its two forward-looking remarks:
//
//  §5.4  "adapting the two-sided scatter-allgather algorithm to use the
//         one-sided primitives": os-sag vs s-ag vs OC-Bcast, latency and
//         peak throughput;
//
//  §7    "extend our approach to other collective operations": OC-Reduce
//         fan-out sweep (a parent ingests k chunks per chunk it emits, so
//         reduction prefers SMALL k — the mirror of broadcast), and
//         OC-Allreduce against a flat gather-based reduction.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>

#include "common/format.h"
#include "core/ocreduce.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "mpi/communicator.h"
#include "sim/condition.h"

namespace {

using namespace ocb;

// --- broadcast family: os-sag vs baselines -------------------------------

struct FamilyMember {
  const char* name;   ///< registry name
  const char* label;  ///< table row
};
constexpr FamilyMember kBcastFamily[] = {
    {"ocbcast", "oc-bcast k=7"},
    {"scatter-allgather", "two-sided s-ag"},
    {"onesided-sag", "one-sided s-ag"},
};

const harness::BcastRunResult& bcast_result(const std::string& name,
                                            std::size_t lines) {
  static std::map<std::pair<std::string, std::size_t>, harness::BcastRunResult>
      cache;
  const auto key = std::make_pair(name, lines);
  auto it = cache.find(key);
  if (it == cache.end()) {
    harness::BcastRunSpec spec;
    spec.algorithm_name = name;
    spec.message_bytes = lines * kCacheLineBytes;
    spec.iterations = harness::default_iterations(lines);
    it = cache.emplace(key, run_broadcast(spec)).first;
  }
  return it->second;
}

// --- reduction family ------------------------------------------------------

struct ReduceMetrics {
  double small_latency_us = 0.0;  // 16 doubles
  double large_latency_us = 0.0;  // 16384 doubles
  double throughput_mbps = 0.0;   // large / latency
};

const ReduceMetrics& reduce_metrics(int k) {
  static std::map<int, ReduceMetrics> cache;
  auto it = cache.find(k);
  if (it != cache.end()) return it->second;

  auto run_once = [k](std::size_t count) {
    scc::SccChip chip;
    core::OcReduceOptions opt;
    opt.k = k;
    core::OcReduce reduce(chip, opt);
    for (CoreId c = 0; c < kNumCores; ++c) {
      auto w = chip.memory(c).host_bytes(0, count * sizeof(double));
      for (std::size_t i = 0; i < count; ++i) {
        const double v = static_cast<double>((c + i) % 97);
        std::memcpy(w.data() + i * sizeof(double), &v, sizeof v);
      }
    }
    sim::Rendezvous sync(chip.engine(), kNumCores);
    sim::Time start = 0, last = 0;
    for (CoreId c = 0; c < kNumCores; ++c) {
      chip.spawn(c, [&, count](scc::Core& me) -> sim::Task<void> {
        for (int warm = 0; warm < 3; ++warm) {
          co_await sync.arrive();
          if (warm == 2) start = me.now();
          co_await reduce.run(me, 0, 0, 1 << 20, count, core::ReduceOp::kSum);
          if (warm == 2) last = std::max(last, me.now());
        }
      });
    }
    OCB_ENSURE(chip.run().completed(), "reduce bench stalled");
    return sim::to_us(last - start);
  };
  ReduceMetrics m;
  m.small_latency_us = run_once(16);
  m.large_latency_us = run_once(16384);
  m.throughput_mbps = 16384.0 * sizeof(double) / m.large_latency_us;
  return cache.emplace(k, m).first->second;
}

struct AllreduceComparison {
  double oc_us = 0.0;    // OC-Allreduce (tree reduce + OC-Bcast)
  double flat_us = 0.0;  // flat gather-based reduce_sum + bcast (mpi facade)
};

const AllreduceComparison& allreduce_comparison() {
  static AllreduceComparison result = [] {
    constexpr std::size_t kCount = 4096;
    AllreduceComparison out;
    {
      scc::SccChip chip;
      core::OcAllreduce allreduce(chip);
      for (CoreId c = 0; c < kNumCores; ++c) {
        chip.memory(c).host_bytes(0, kCount * sizeof(double));
      }
      sim::Time last = 0;
      for (CoreId c = 0; c < kNumCores; ++c) {
        chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
          co_await allreduce.run(me, 0, 1 << 20, kCount, core::ReduceOp::kSum);
          last = std::max(last, me.now());
        });
      }
      OCB_ENSURE(chip.run().completed(), "oc-allreduce stalled");
      out.oc_us = sim::to_us(last);
    }
    {
      scc::SccChip chip;
      mpi::Communicator comm(chip);
      for (CoreId c = 0; c < kNumCores; ++c) {
        chip.memory(c).host_bytes(0, kCount * sizeof(double));
      }
      sim::Time last = 0;
      for (CoreId c = 0; c < kNumCores; ++c) {
        chip.spawn(c, [&](scc::Core& me) -> sim::Task<void> {
          co_await comm.reduce_sum(me, 0, 0, kCount, 1 << 20);
          co_await comm.bcast(me, 0, 0, kCount * sizeof(double));
          last = std::max(last, me.now());
        });
      }
      OCB_ENSURE(chip.run().completed(), "flat allreduce stalled");
      out.flat_us = sim::to_us(last);
    }
    return out;
  }();
  return result;
}

// --- benchmark registrations -------------------------------------------------

void bench_bcast_family(benchmark::State& state, const char* name) {
  const auto lines = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto& r = bcast_result(name, lines);
    state.SetIterationTime(r.latency_us.mean() * 1e-6);
    state.counters["throughput_mbps"] = r.throughput_mbps;
  }
}

void bench_reduce_fanout(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const ReduceMetrics& m = reduce_metrics(k);
    state.SetIterationTime(m.large_latency_us * 1e-6);
    state.counters["small_us"] = m.small_latency_us;
    state.counters["tput_mbps"] = m.throughput_mbps;
  }
}

void print_tables() {
  {
    TextTable table({"algorithm", "latency_96CL_us", "peak_MBps_8192CL"});
    std::vector<std::vector<std::string>> csv;
    for (const FamilyMember& m : kBcastFamily) {
      const double lat = bcast_result(m.name, 96).latency_us.mean();
      const double peak = bcast_result(m.name, 8192).throughput_mbps;
      table.add_row({m.label, fmt_fixed(lat, 2), fmt_fixed(peak, 2)});
      csv.push_back({m.label, fmt_fixed(lat, 4), fmt_fixed(peak, 4)});
    }
    std::printf("\n=== §5.4 extension: one-sided scatter-allgather ===\n%s",
                table.str().c_str());
    write_csv(harness::results_dir() + "/extension_ossag.csv",
              {"algorithm", "latency_96cl_us", "peak_mbps"}, csv);
  }
  {
    TextTable table({"k", "latency_16_doubles_us", "latency_16k_doubles_us",
                     "throughput_MBps"});
    std::vector<std::vector<std::string>> csv;
    for (int k : {1, 2, 3, 5, 7, 16, 47}) {
      const ReduceMetrics& m = reduce_metrics(k);
      table.add_row({std::to_string(k), fmt_fixed(m.small_latency_us, 2),
                     fmt_fixed(m.large_latency_us, 2),
                     fmt_fixed(m.throughput_mbps, 2)});
      csv.push_back({std::to_string(k), fmt_fixed(m.small_latency_us, 4),
                     fmt_fixed(m.large_latency_us, 4),
                     fmt_fixed(m.throughput_mbps, 4)});
    }
    std::printf("\n=== OC-Reduce fan-out sweep (sum of doubles, 48 cores) ===\n%s",
                table.str().c_str());
    std::printf("(broadcast's best latency k is 7; reduction pays k chunk\n"
                " ingests per chunk emitted, so its optimum sits lower)\n");
    write_csv(harness::results_dir() + "/extension_reduce.csv",
              {"k", "lat16_us", "lat16384_us", "tput_mbps"}, csv);
  }
  {
    const AllreduceComparison& c = allreduce_comparison();
    std::printf("\n=== OC-Allreduce vs flat gather-based allreduce (4096 doubles) ===\n");
    std::printf("  OC-Allreduce (tree reduce + OC-Bcast): %10.2f us\n", c.oc_us);
    std::printf("  flat gather + OC-Bcast (mpi facade):   %10.2f us\n", c.flat_us);
    std::printf("  speedup: %.2fx\n", c.flat_us / c.oc_us);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const FamilyMember& m : kBcastFamily) {
    for (long lines : {96L, 8192L}) {
      benchmark::RegisterBenchmark(
          (std::string("extension/bcast_family/") + m.name).c_str(),
          [name = m.name](benchmark::State& state) {
            bench_bcast_family(state, name);
          })
          ->Args({lines})
          ->UseManualTime()
          ->Iterations(1);
    }
  }
  for (int k : {1, 2, 7, 47}) {
    benchmark::RegisterBenchmark("extension/reduce_fanout", &bench_reduce_fanout)
        ->Args({k})
        ->UseManualTime()
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}
