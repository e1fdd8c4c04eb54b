#include "coll/registry.h"

#include <algorithm>
#include <map>

#include "coll/adaptive.h"
#include "common/require.h"
#include "core/binomial.h"
#include "core/ft_ocbcast.h"
#include "core/hier_bcast.h"
#include "core/ocbcast.h"
#include "core/onesided_sag.h"
#include "core/scatter_allgather.h"
#include "scc/chip.h"

namespace ocb::coll {

namespace {

std::map<std::string, Factory>& table() {
  // Builtins are installed on first access rather than from static
  // registrant objects: the registry lives in a static archive, and a
  // registrant-only translation unit would be dropped by the linker.
  static std::map<std::string, Factory> t = [] {
    std::map<std::string, Factory> m;
    m["ocbcast"] = [](scc::SccChip& chip, const Params& p) {
      core::OcBcastOptions o;
      o.parties = p.parties;
      o.k = p.k;
      o.chunk_lines = p.chunk_lines;
      o.double_buffering = p.double_buffering;
      o.leaf_direct_to_memory = p.leaf_direct_to_memory;
      o.sequential_notification = p.sequential_notification;
      o.mpb_base_line = p.mpb_base_line;
      return std::unique_ptr<Collective>(new core::OcBcast(chip, o));
    };
    m["binomial"] = [](scc::SccChip& chip, const Params& p) {
      core::BinomialOptions o;
      o.parties = p.parties;
      return std::unique_ptr<Collective>(new core::BinomialBcast(chip, o));
    };
    m["scatter-allgather"] = [](scc::SccChip& chip, const Params& p) {
      core::ScatterAllgatherOptions o;
      o.parties = p.parties;
      return std::unique_ptr<Collective>(
          new core::ScatterAllgatherBcast(chip, o));
    };
    m["onesided-sag"] = [](scc::SccChip& chip, const Params& p) {
      core::OneSidedSagOptions o;
      o.parties = p.parties;
      o.mpb_base_line = p.mpb_base_line;
      return std::unique_ptr<Collective>(
          new core::OneSidedScatterAllgather(chip, o));
    };
    m["hier-ocbcast"] = [](scc::SccChip& chip, const Params& p) {
      core::HierarchicalBcastOptions o;
      o.parties = p.parties;
      o.k = p.k;
      o.die_k = p.die_k;
      o.chunk_lines = p.chunk_lines;
      o.double_buffering = p.double_buffering;
      o.mpb_base_line = p.mpb_base_line;
      return std::unique_ptr<Collective>(new core::HierarchicalBcast(chip, o));
    };
    m["ft-ocbcast"] = [](scc::SccChip& chip, const Params& p) {
      core::FtOcBcastOptions o;
      o.parties = p.parties;
      o.k = p.k;
      o.chunk_lines = p.chunk_lines;
      o.double_buffering = p.double_buffering;
      o.mpb_base_line = p.mpb_base_line;
      return std::unique_ptr<Collective>(new core::FtOcBcast(chip, o));
    };
    m["adaptive"] = [](scc::SccChip& chip, const Params& p) {
      DecisionTable table = p.adaptive_table_json.empty()
                                ? DecisionTable::baked_in()
                                : DecisionTable::from_json(p.adaptive_table_json);
      return std::unique_ptr<Collective>(
          new AdaptiveBcast(chip, p, std::move(table)));
    };
    return m;
  }();
  return t;
}

}  // namespace

void register_collective(const std::string& name, Factory factory,
                         bool allow_override) {
  OCB_REQUIRE(!name.empty(), "collective name must be non-empty");
  OCB_REQUIRE(static_cast<bool>(factory), "collective factory must be callable");
  OCB_REQUIRE(allow_override || table().count(name) == 0,
              "duplicate registration of collective '" + name +
                  "' (pass allow_override to replace the existing factory)");
  table()[name] = std::move(factory);
}

bool registered(const std::string& name) { return table().count(name) != 0; }

std::vector<std::string> names() {
  std::vector<std::string> out;
  out.reserve(table().size());
  for (const auto& [name, factory] : table()) out.push_back(name);
  return out;
}

std::unique_ptr<Collective> make(const std::string& name, scc::SccChip& chip,
                                 const Params& params) {
  const auto it = table().find(name);
  if (it == table().end()) {
    std::string msg = "unknown collective '" + name + "'; registered:";
    for (const auto& [registered_name, factory] : table()) {
      msg += ' ';
      msg += registered_name;
    }
    OCB_REQUIRE(false, msg);
  }
  if (params.parties == 0) {  // "all cores of this chip"
    Params resolved = params;
    resolved.parties = chip.topology().num_cores();
    return it->second(chip, resolved);
  }
  return it->second(chip, params);
}

}  // namespace ocb::coll
