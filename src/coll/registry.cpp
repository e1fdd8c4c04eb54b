#include "coll/registry.h"

#include <map>

#include "coll/adaptive.h"
#include "common/require.h"
#include "core/binomial.h"
#include "core/ft_ocbcast.h"
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
      return std::make_unique<core::OcBcast>(chip, p);
    };
    m["binomial"] = [](scc::SccChip& chip, const Params& p) {
      return std::make_unique<core::BinomialBcast>(chip, p);
    };
    m["scatter-allgather"] = [](scc::SccChip& chip, const Params& p) {
      return std::make_unique<core::ScatterAllgatherBcast>(chip, p);
    };
    m["onesided-sag"] = [](scc::SccChip& chip, const Params& p) {
      return std::make_unique<core::OneSidedScatterAllgather>(chip, p);
    };
    m["hier-ocbcast"] = [](scc::SccChip& chip, const Params& p) {
      return std::make_unique<core::OcBcast>(chip, p,
                                             core::OcBcast::Tree::kDieAware);
    };
    m["ft-ocbcast"] = [](scc::SccChip& chip, const Params& p) {
      return std::make_unique<core::FtOcBcast>(chip, p);
    };
    m["adaptive"] = [](scc::SccChip& chip, const Params& p) {
      return std::make_unique<AdaptiveBcast>(chip, p);
    };
    return m;
  }();
  return t;
}

}  // namespace

Params resolved(Params params, const scc::SccChip& chip) {
  params.parties = chip.resolve_parties(params.parties);
  return params;
}

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
  return it->second(chip, params);
}

}  // namespace ocb::coll
