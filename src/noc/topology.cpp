#include "noc/topology.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace ocb::noc {

namespace {

/// Default per-die controller placement: the four "corners" the SCC uses —
/// west/east edges at row 0 and row tiles_y/2 — deduplicated for degenerate
/// dies (1 column collapses east onto west, 1 row collapses the second pair
/// onto the first).
std::vector<TileCoord> default_mc_tiles(int tiles_x, int tiles_y) {
  const int east = tiles_x - 1;
  const int mid = tiles_y / 2;
  std::vector<TileCoord> out;
  for (const TileCoord t : {TileCoord{0, 0}, TileCoord{east, 0},
                            TileCoord{0, mid}, TileCoord{east, mid}}) {
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  return out;
}

/// `v` as an int; PreconditionError naming `what` when it does not fit.
int checked_int(std::int64_t v, const std::string& what) {
  OCB_REQUIRE(v >= std::numeric_limits<int>::min() &&
                  v <= std::numeric_limits<int>::max(),
              "topology: " + what + " does not fit in an int");
  return static_cast<int>(v);
}

}  // namespace

Topology::Topology(const Spec& spec) : spec_(spec) {
  OCB_REQUIRE(spec.cores_per_tile >= 1, "need at least one core per tile");
  OCB_REQUIRE(spec.tiles_x >= 1 && spec.tiles_y >= 1,
              "die mesh must be at least 1x1 tiles");
  OCB_REQUIRE(spec.dies_x >= 1 && spec.dies_y >= 1,
              "die grid must be at least 1x1");
  // Sizes in 64 bits, each required to fit the int it is stored in (the
  // factors are ints, so no product below overflows 64 bits).
  mesh_cols_ =
      checked_int(std::int64_t{spec.dies_x} * spec.tiles_x, "mesh columns");
  mesh_rows_ =
      checked_int(std::int64_t{spec.dies_y} * spec.tiles_y, "mesh rows");
  num_tiles_ =
      checked_int(std::int64_t{mesh_cols_} * mesh_rows_, "tile count");
  num_cores_ = checked_int(std::int64_t{num_tiles_} * spec.cores_per_tile,
                           "core count");
  checked_int(std::int64_t{num_tiles_} * 4, "link-slot count");

  mc_die_tiles_ =
      spec.mc_tiles_per_die.empty()
          ? default_mc_tiles(spec.tiles_x, spec.tiles_y)
          : spec.mc_tiles_per_die;
  spec_.mc_tiles_per_die = mc_die_tiles_;
  for (const TileCoord& t : mc_die_tiles_) {
    OCB_REQUIRE(t.x >= 0 && t.x < spec.tiles_x && t.y >= 0 && t.y < spec.tiles_y,
                "memory controller tile outside its die");
  }
  OCB_REQUIRE(!mc_die_tiles_.empty(), "need at least one memory controller");

  // Global controller list, die-major (die 0's controllers first).
  for (int dy = 0; dy < spec.dies_y; ++dy) {
    for (int dx = 0; dx < spec.dies_x; ++dx) {
      for (const TileCoord& local : mc_die_tiles_) {
        mc_tiles_.push_back(TileCoord{dx * spec.tiles_x + local.x,
                                      dy * spec.tiles_y + local.y});
      }
    }
  }

  // Per-core tables: tile, nearest same-die controller (ties to the lowest
  // global index — on the SCC floorplan this IS the quadrant assignment),
  // and router distance to it.
  const int mc_per_die = static_cast<int>(mc_die_tiles_.size());
  core_tiles_.reserve(static_cast<std::size_t>(num_cores_));
  core_mc_.reserve(static_cast<std::size_t>(num_cores_));
  core_mem_distance_.reserve(static_cast<std::size_t>(num_cores_));
  for (CoreId c = 0; c < num_cores_; ++c) {
    const int tile = c / spec.cores_per_tile;
    const TileCoord t{tile % mesh_cols_, tile / mesh_cols_};
    core_tiles_.push_back(t);
    const int die = die_of_tile(t);
    int best = -1;
    int best_d = 0;
    for (int m = 0; m < mc_per_die; ++m) {
      const int mc_index = die * mc_per_die + m;
      const int d = manhattan(t, mc_tiles_[static_cast<std::size_t>(mc_index)]);
      if (best < 0 || d < best_d) {
        best = mc_index;
        best_d = d;
      }
    }
    core_mc_.push_back(best);
    core_mem_distance_.push_back(best_d + 1);
  }
}

const Topology& Topology::scc() {
  static const Topology t{Spec{}};
  return t;
}

Topology Topology::mesh(int tiles_x, int tiles_y, int cores_per_tile) {
  Spec s;
  s.cores_per_tile = cores_per_tile;
  s.tiles_x = tiles_x;
  s.tiles_y = tiles_y;
  return Topology(s);
}

Topology Topology::multi_die(int dies_x, int dies_y, int tiles_x, int tiles_y,
                             int cores_per_tile,
                             sim::Duration interposer_extra_latency,
                             sim::Duration interposer_extra_occupancy) {
  Spec s;
  s.cores_per_tile = cores_per_tile;
  s.tiles_x = tiles_x;
  s.tiles_y = tiles_y;
  s.dies_x = dies_x;
  s.dies_y = dies_y;
  s.interposer_extra_latency = interposer_extra_latency;
  s.interposer_extra_occupancy = interposer_extra_occupancy;
  return Topology(s);
}

std::vector<CoreId> Topology::cores_of_die(int die) const {
  OCB_REQUIRE(die >= 0 && die < num_dies(), "die index out of range");
  const int dx = die % spec_.dies_x;
  const int dy = die / spec_.dies_x;
  std::vector<CoreId> out;
  out.reserve(static_cast<std::size_t>(spec_.tiles_x * spec_.tiles_y *
                                       spec_.cores_per_tile));
  for (int y = dy * spec_.tiles_y; y < (dy + 1) * spec_.tiles_y; ++y) {
    for (int x = dx * spec_.tiles_x; x < (dx + 1) * spec_.tiles_x; ++x) {
      const CoreId first = first_core_of_tile(y * mesh_cols_ + x);
      for (int i = 0; i < spec_.cores_per_tile; ++i) out.push_back(first + i);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

CoreId Topology::die_leader(int die) const {
  OCB_REQUIRE(die >= 0 && die < num_dies(), "die index out of range");
  const int dx = die % spec_.dies_x;
  const int dy = die / spec_.dies_x;
  // Row-major tile indexing makes the die's top-left tile its lowest tile
  // index, hence its first core the die's lowest core id.
  return first_core_of_tile((dy * spec_.tiles_y) * mesh_cols_ +
                            dx * spec_.tiles_x);
}

std::string Topology::describe() const {
  const bool default_mc =
      mc_die_tiles_ == default_mc_tiles(spec_.tiles_x, spec_.tiles_y);
  std::ostringstream os;
  if (*this == scc()) return "scc";
  if (num_dies() > 1) os << "dies:" << spec_.dies_x << "x" << spec_.dies_y << ":";
  os << "mesh:" << spec_.tiles_x << "x" << spec_.tiles_y;
  if (spec_.cores_per_tile != 2) os << ":cpt:" << spec_.cores_per_tile;
  if (!default_mc) os << "+mc";
  if (num_dies() > 1 &&
      (spec_.interposer_extra_latency != 20 * sim::kNanosecond ||
       spec_.interposer_extra_occupancy != 5 * sim::kNanosecond)) {
    os << "+ixp";
  }
  return os.str();
}

std::string Topology::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"ocb-topology-v1\",";
  os << "\"cores_per_tile\":" << spec_.cores_per_tile << ",";
  os << "\"tiles_x\":" << spec_.tiles_x << ",\"tiles_y\":" << spec_.tiles_y
     << ",";
  os << "\"dies_x\":" << spec_.dies_x << ",\"dies_y\":" << spec_.dies_y << ",";
  os << "\"interposer_extra_latency_ps\":" << spec_.interposer_extra_latency
     << ",";
  os << "\"interposer_extra_occupancy_ps\":"
     << spec_.interposer_extra_occupancy << ",";
  os << "\"mc_tiles\":[";
  for (std::size_t i = 0; i < mc_die_tiles_.size(); ++i) {
    if (i > 0) os << ",";
    os << "[" << mc_die_tiles_[i].x << "," << mc_die_tiles_[i].y << "]";
  }
  os << "]}";
  return os.str();
}

namespace {

// Minimal scanners for our own to_json output (same approach as
// coll::DecisionTable: the grammar is fixed and flat, so a find-the-key
// scan is exact).

const char* find_field(const std::string& json, const char* key) {
  const std::string prefix = std::string("\"") + key + "\":";
  const std::size_t at = json.find(prefix);
  OCB_REQUIRE(at != std::string::npos,
              "topology JSON missing field '" + std::string(key) + "'");
  const char* s = json.c_str() + at + prefix.size();
  while (*s == ' ') ++s;
  return s;
}

std::int64_t get_i64(const std::string& json, const char* key) {
  const char* s = find_field(json, key);
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(s, &end, 10);
  OCB_REQUIRE(end != s && errno != ERANGE,
              "topology JSON field '" + std::string(key) +
                  "' is not an integer");
  return v;
}

int get_int(const std::string& json, const char* key) {
  return checked_int(get_i64(json, key),
                     "JSON field '" + std::string(key) + "'");
}

std::vector<TileCoord> get_tile_list(const std::string& json, const char* key) {
  const char* s = find_field(json, key);
  OCB_REQUIRE(*s == '[', "topology JSON field '" + std::string(key) +
                             "' is not an array");
  ++s;
  std::vector<TileCoord> out;
  while (*s != '\0' && *s != ']') {
    if (*s == ',' || *s == ' ') {
      ++s;
      continue;
    }
    OCB_REQUIRE(*s == '[', "topology JSON mc tile is not an [x,y] pair");
    ++s;
    char* end = nullptr;
    const long long x = std::strtoll(s, &end, 10);
    OCB_REQUIRE(end != s && *end == ',', "topology JSON mc tile x malformed");
    s = end + 1;
    const long long y = std::strtoll(s, &end, 10);
    OCB_REQUIRE(end != s && *end == ']', "topology JSON mc tile y malformed");
    s = end + 1;
    out.push_back(TileCoord{checked_int(x, "JSON mc tile x"),
                            checked_int(y, "JSON mc tile y")});
  }
  OCB_REQUIRE(*s == ']', "topology JSON mc tile array unterminated");
  return out;
}

}  // namespace

Topology Topology::from_json(const std::string& json) {
  OCB_REQUIRE(json.find("\"ocb-topology-v1\"") != std::string::npos,
              "not an ocb-topology-v1 record");
  Spec s;
  s.cores_per_tile = get_int(json, "cores_per_tile");
  s.tiles_x = get_int(json, "tiles_x");
  s.tiles_y = get_int(json, "tiles_y");
  s.dies_x = get_int(json, "dies_x");
  s.dies_y = get_int(json, "dies_y");
  s.interposer_extra_latency = get_i64(json, "interposer_extra_latency_ps");
  s.interposer_extra_occupancy = get_i64(json, "interposer_extra_occupancy_ps");
  s.mc_tiles_per_die = get_tile_list(json, "mc_tiles");
  return Topology(s);
}

Topology Topology::parse(const std::string& spec) {
  auto parse_pair = [&](const std::string& s, char sep, const char* what) {
    const std::size_t at = s.find(sep);
    OCB_REQUIRE(at != std::string::npos && at > 0 && at + 1 < s.size(),
                std::string("topology spec: expected <a>") + sep + "<b> for " +
                    what + " in '" + spec + "'");
    char* end = nullptr;
    const long long a = std::strtoll(s.c_str(), &end, 10);
    OCB_REQUIRE(end == s.c_str() + at, std::string("topology spec: bad ") +
                                           what + " in '" + spec + "'");
    const long long b = std::strtoll(s.c_str() + at + 1, &end, 10);
    OCB_REQUIRE(*end == '\0' && end == s.c_str() + s.size(),
                std::string("topology spec: bad ") + what + " in '" + spec +
                    "'");
    const std::string where = std::string(what) + " in '" + spec + "'";
    return std::pair<int, int>{checked_int(a, where), checked_int(b, where)};
  };
  if (spec == "scc") return scc();
  if (spec.rfind("mesh:", 0) == 0) {
    const auto [cols, rows] = parse_pair(spec.substr(5), 'x', "mesh size");
    return mesh(cols, rows);
  }
  if (spec.rfind("dies:", 0) == 0) {
    const std::size_t mesh_at = spec.find(":mesh:");
    OCB_REQUIRE(mesh_at != std::string::npos,
                "topology spec: dies:<dx>x<dy>:mesh:<cols>x<rows> expected, "
                "got '" + spec + "'");
    const auto [dx, dy] =
        parse_pair(spec.substr(5, mesh_at - 5), 'x', "die grid");
    const auto [cols, rows] =
        parse_pair(spec.substr(mesh_at + 6), 'x', "mesh size");
    return multi_die(dx, dy, cols, rows);
  }
  OCB_REQUIRE(false, "unknown topology spec '" + spec +
                         "' (want scc | mesh:<c>x<r> | "
                         "dies:<dx>x<dy>:mesh:<c>x<r>)");
  return scc();
}

}  // namespace ocb::noc
