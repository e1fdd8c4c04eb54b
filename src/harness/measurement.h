// Experiment harness: runs collectives and RMA micro-experiments on the
// simulated SCC and extracts the quantities the paper reports.
//
// Measurement hygiene mirrors §6.1:
//  * iterations are separated by a zero-cost rendezvous (not a real
//    barrier), so every iteration starts with all cores synchronized and
//    the measured interval contains only the collective itself;
//  * warm-up iterations are discarded;
//  * each iteration operates on a different private-memory offset so data
//    caches cannot serve the root's message reads ("currently uncached
//    offset" trick of §6.1);
//  * latency is the paper's definition: last core's return minus the
//    common start;
//  * every delivered message is byte-compared against the root's buffer
//    (the simulator moves real data), so a timing result can never come
//    from a broken protocol.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "coll/registry.h"
#include "common/stats.h"
#include "scc/chip.h"
#include "scc/config.h"
#include "sim/counters.h"

namespace ocb::check {
class RaceChecker;
}  // namespace ocb::check

namespace ocb::harness {

struct BcastRunSpec {
  /// Registry name (coll/registry.h) of the algorithm under test; `params`
  /// configures it. The defaults run OC-Bcast k=7.
  std::string algorithm_name = "ocbcast";
  coll::Params params{};
  scc::SccConfig config{};
  CoreId root = 0;
  std::size_t message_bytes = kCacheLineBytes;
  int iterations = 8;  ///< measured iterations
  int warmup = 1;      ///< discarded leading iterations
  bool verify = true;  ///< byte-compare every measured delivery
  /// Install an ocb::check::RaceChecker for the whole session. OCB_CHECK
  /// (any value but "0") installs one too and makes run() throw on a race.
  bool check = false;
};

struct BcastRunResult {
  SampleStats latency_us;   ///< per measured iteration
  double throughput_mbps = 0.0;  ///< message_bytes / mean latency
  bool content_ok = true;
  std::uint64_t events = 0;  ///< events processed by THIS run() call
  double simulated_ms = 0.0;
  sim::Time end_time = 0;  ///< simulated clock when the queue drained
  /// Engine-lifetime high-water mark of the event queue (sim::RunResult).
  std::uint64_t max_queue_depth = 0;
  /// Host-side counters of this run() call (sim/counters.h).
  sim::Counters counters;
  /// Race-checker results for this run() call (spec.check / OCB_CHECK).
  std::uint64_t race_violations = 0;
  std::string race_report{};
};

/// Reusable measurement session: one chip and one algorithm instance
/// serving any number of run() calls. Each call executes spec.warmup +
/// spec.iterations broadcasts, advancing an internal private-memory slot
/// cursor so later calls still honour the §6.1 "uncached offset" rule,
/// and reports only its own event delta. Because a completed broadcast
/// leaves all protocol state (flags, buffers) reset, a reused chip must
/// produce the same latency samples as a fresh one — asserted by
/// measurement_test.cpp — while skipping repeated chip construction.
class BcastSession {
 public:
  explicit BcastSession(const BcastRunSpec& spec);
  ~BcastSession();

  BcastSession(const BcastSession&) = delete;
  BcastSession& operator=(const BcastSession&) = delete;

  /// One warmup+measure block on the (possibly reused) chip.
  BcastRunResult run();

  scc::SccChip& chip() { return *chip_; }

  /// The installed race checker, or nullptr when checking is off.
  check::RaceChecker* checker() { return checker_.get(); }

 private:
  BcastRunSpec spec_;
  std::unique_ptr<scc::SccChip> chip_;
  std::unique_ptr<coll::Collective> algo_;
  std::unique_ptr<check::RaceChecker> checker_;
  int next_slot_ = 0;  ///< first unused iteration slot (offset cursor)
  std::uint64_t events_seen_ = 0;  ///< cumulative engine count already reported
  std::uint64_t races_seen_ = 0;   ///< cumulative violations already reported
};

/// Runs `warmup + iterations` broadcasts on a fresh chip
/// (single-use BcastSession).
BcastRunResult run_broadcast(const BcastRunSpec& spec);

/// Point-to-point RMA operation kinds, matching Figure 3's four panels.
enum class OpKind {
  kGetMpbToMpb,
  kPutMpbToMpb,
  kGetMpbToMem,
  kPutMemToMpb,
};

/// Average completion time (us) of `lines`-line operations issued by
/// `actor` against `target`'s MPB on an otherwise idle chip.
double measure_op_completion_us(const scc::SccConfig& config, OpKind kind,
                                CoreId actor, CoreId target, std::size_t lines,
                                int iterations = 16);

/// Finds an SCC (Topology::scc()) core pair whose MPB distance is exactly
/// `d` routers; throws if none exists (valid d: 1..9 on the 6x4 mesh).
std::pair<CoreId, CoreId> core_pair_at_mpb_distance(int d);

/// Finds an SCC core whose memory-controller distance is exactly `d`
/// (1..4).
CoreId core_at_mem_distance(int d);

/// Figure 4: n cores (0 = every core of config.topology) concurrently
/// accessing core 0's MPB.
struct ContentionResult {
  double avg_us = 0.0;
  std::vector<double> per_core_us;  ///< one entry per participating core
  std::uint64_t events = 0;         ///< engine events for the whole experiment
  std::uint64_t max_queue_depth = 0;
};

/// `use_get`: each core repeatedly gets `lines` lines from core 0's MPB
/// (Fig. 4a). Otherwise each core repeatedly puts one line to its own
/// dedicated line of core 0's MPB (Fig. 4b; `lines` ignored).
ContentionResult measure_mpb_contention(const scc::SccConfig& config, int n_cores,
                                        std::size_t lines, bool use_get,
                                        int iterations = 16);

/// §3.3 mesh stress: victim get latency across the (2,2)-(3,2) link of
/// config.topology while every remote core hammers flows through that
/// link, vs. unloaded.
struct MeshStressResult {
  double loaded_us = 0.0;
  double unloaded_us = 0.0;
};

MeshStressResult measure_mesh_stress(const scc::SccConfig& config,
                                     std::size_t lines = 128);

}  // namespace ocb::harness
