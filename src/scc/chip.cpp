#include "scc/chip.h"

#include <algorithm>

#include "common/require.h"
#include "scc/bulk.h"

namespace ocb::scc {

SccChip::SccChip(const SccConfig& config) : config_(config) {
  config_.validate();
  const noc::Topology& topo = config_.topology;
  refresh_coalescing();
  mesh_ = std::make_unique<noc::Mesh>(engine_, topo, config_.l_hop,
                                      config_.link_occupancy);
  mpb_ports_.resize(static_cast<std::size_t>(topo.num_tiles()));
  for (int t = 0; t < topo.num_tiles(); ++t) {
    mpb_ports_[static_cast<std::size_t>(t)] =
        std::make_unique<sim::ArbitratedServer>(engine_, config_.arbitration);
  }
  mc_ports_.resize(static_cast<std::size_t>(topo.num_memory_controllers()));
  for (int m = 0; m < topo.num_memory_controllers(); ++m) {
    mc_ports_[static_cast<std::size_t>(m)] =
        std::make_unique<sim::ArbitratedServer>(engine_, config_.arbitration);
  }
  const auto cores = static_cast<std::size_t>(topo.num_cores());
  mpbs_.resize(cores);
  memories_.resize(cores);
  cores_.resize(cores);
  bulk_pools_.resize(cores);
  crash_notified_.assign(cores, false);
  for (CoreId c = 0; c < topo.num_cores(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    mpbs_[i] = std::make_unique<mem::MpbStorage>(engine_);
    memories_[i] = std::make_unique<mem::PrivateMemory>(config_.private_memory_limit);
    cores_[i] = std::make_unique<Core>(*this, c);
  }
}

SccChip::SccChip(const noc::Topology& topology, SccConfig config)
    : SccChip([&] {
        config.topology = topology;
        return config;
      }()) {}

SccChip::~SccChip() = default;

int SccChip::resolve_parties(int requested, int minimum) const {
  const int parties = requested == 0 ? num_cores() : requested;
  OCB_REQUIRE(parties >= minimum && parties <= num_cores(),
              "party count " + std::to_string(parties) + " out of range");
  return parties;
}

Core& SccChip::core(CoreId id) {
  config_.topology.require_core(id);
  return *cores_[static_cast<std::size_t>(id)];
}

BulkOp* SccChip::try_acquire_bulk(CoreId id, std::size_t lines) {
  if (!coalescing_active()) return nullptr;
  config_.topology.require_core(id);
  if (observers_.empty() || bulk_window_clear(id)) {
    auto& pool = bulk_pools_[static_cast<std::size_t>(id)];
    for (const auto& op : pool) {
      if (!op->in_flight()) return op.get();
    }
    if (pool.size() < kBulkPoolSize) {
      pool.push_back(std::make_unique<BulkOp>(core(id)));
      return pool.back().get();
    }
  }
  ++counters_.bulk_fallback_ops;
  counters_.bulk_fallback_lines += lines;
  return nullptr;
}

bool SccChip::bulk_window_clear(CoreId core) {
  const sim::Time now = engine_.now();
  for (TransactionObserver* o : observers_) {
    if (!o->bulk_window_clear(core, now)) return false;
  }
  return true;
}

void SccChip::refresh_coalescing() {
  coalescing_active_ = config_.coalescing && config_.jitter == 0 &&
                       std::all_of(observers_.begin(), observers_.end(),
                                   [](const TransactionObserver* o) {
                                     return o->supports_bulk();
                                   });
}

mem::MpbStorage& SccChip::mpb(CoreId id) {
  config_.topology.require_core(id);
  return *mpbs_[static_cast<std::size_t>(id)];
}

mem::PrivateMemory& SccChip::memory(CoreId id) {
  config_.topology.require_core(id);
  return *memories_[static_cast<std::size_t>(id)];
}

sim::ArbitratedServer& SccChip::mpb_port(int tile_index) {
  config_.topology.require_tile(tile_index);
  return *mpb_ports_[static_cast<std::size_t>(tile_index)];
}

sim::ArbitratedServer& SccChip::mc_port(int mc_index) {
  OCB_REQUIRE(mc_index >= 0 && mc_index < config_.topology.num_memory_controllers(),
              "memory controller index out of range");
  return *mc_ports_[static_cast<std::size_t>(mc_index)];
}

sim::Task<void> SccChip::invoke_program(
    std::function<sim::Task<void>(Core&)> program, Core& core) {
  // `program` lives in this frame for the lifetime of the inner coroutine,
  // which keeps lambda captures valid (a lambda coroutine's frame refers
  // into its closure object).
  co_await program(core);
}

std::string SccChip::describe_core(void* core) {
  Core& c = *static_cast<Core*>(core);
  return "core " + std::to_string(c.id()) + ": " + c.wait_note();
}

void SccChip::spawn(CoreId id, std::function<sim::Task<void>(Core&)> program) {
  OCB_REQUIRE(static_cast<bool>(program), "empty core program");
  Core& c = core(id);
  engine_.spawn(invoke_program(std::move(program), c), &SccChip::describe_core,
                &c);
}

sim::RunResult SccChip::run(std::uint64_t max_events) {
  const sim::Counters before = counters_;
  sim::RunResult result = engine_.run(max_events);
  result.counters += counters_ - before;
  return result;
}

void SccChip::add_observer(TransactionObserver* observer) {
  OCB_REQUIRE(observer != nullptr, "null observer");
  for (const TransactionObserver* o : observers_) {
    OCB_REQUIRE(o != observer, "observer installed twice");
  }
  observers_.push_back(observer);
  refresh_coalescing();
}

void SccChip::remove_observer(TransactionObserver* observer) {
  std::erase(observers_, observer);
  refresh_coalescing();
}

void SccChip::set_trace_sink(TraceSink sink) {
  const bool was_installed = static_cast<bool>(trace_observer_.sink);
  trace_observer_.sink = std::move(sink);
  const bool want_installed = static_cast<bool>(trace_observer_.sink);
  if (want_installed && !was_installed) add_observer(&trace_observer_);
  if (!want_installed && was_installed) remove_observer(&trace_observer_);
}

bool SccChip::observer_crashed(CoreId core, sim::Time now) {
  bool dead = false;
  for (TransactionObserver* o : observers_) {
    dead = o->crashed(core, now) || dead;
  }
  const auto i = static_cast<std::size_t>(core);
  if (dead && !crash_notified_[i]) {
    crash_notified_[i] = true;
    for (TransactionObserver* o : observers_) o->on_crash(core, now);
  }
  return dead;
}

sim::Duration SccChip::observer_stall(CoreId core, sim::Time now) {
  sim::Duration total = 0;
  for (TransactionObserver* o : observers_) total += o->stall(core, now);
  return total;
}

}  // namespace ocb::scc
