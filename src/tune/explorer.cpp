#include "tune/explorer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/format.h"
#include "common/require.h"
#include "coll/registry.h"
#include "core/pipeline.h"
#include "harness/fault_sweep.h"
#include "harness/measurement.h"
#include "harness/parallel.h"
#include "harness/sweep.h"

namespace ocb::tune {

namespace {

constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

/// Algorithms whose factories honor the k/chunk/double-buffering knobs.
bool tunable(const std::string& algorithm) {
  return algorithm == "ocbcast" || algorithm == "ft-ocbcast";
}

/// Whether the algorithm's MPB layout (core/pipeline.h; FT-OC-Bcast adds a
/// staged line per buffer) fits the 256-line MPB.
bool layout_fits(const std::string& algorithm, int k, std::size_t chunk,
                 bool db, int parties) {
  if (k < 1 || k > parties - 1) return false;
  const coll::Params p{.parties = parties,
                       .k = k,
                       .chunk_lines = chunk,
                       .double_buffering = db};
  return core::TreeLayout::of(p, k, /*staged=*/algorithm == "ft-ocbcast").fits();
}

std::vector<DesignPoint> build_grid(const ExplorerOptions& o,
                                    const std::vector<std::string>& algos) {
  std::vector<DesignPoint> grid;
  for (const std::size_t lines : o.sizes_lines) {
    for (const std::string& algorithm : algos) {
      if (!tunable(algorithm)) {
        grid.push_back(DesignPoint{algorithm, lines});
        continue;
      }
      for (const int k : o.fanouts) {
        for (const std::size_t chunk : o.chunk_grid) {
          for (const bool db : o.buffering_grid) {
            if (!layout_fits(algorithm, k, chunk, db, o.parties)) continue;
            grid.push_back(DesignPoint{algorithm, lines, k, chunk, db});
          }
        }
      }
    }
  }
  return grid;
}

PointResult measure_point(const ExplorerOptions& o, const DesignPoint& p) {
  harness::BcastRunSpec spec;
  spec.algorithm_name = p.algorithm;
  spec.params.parties = o.parties;
  spec.params.k = p.k;
  spec.params.chunk_lines = p.chunk_lines;
  spec.params.double_buffering = p.double_buffering;
  spec.message_bytes = p.lines * kCacheLineBytes;
  spec.iterations =
      o.iterations > 0 ? o.iterations : harness::default_iterations(p.lines);
  PointResult out;
  out.point = p;
  out.iterations = spec.iterations;
  const harness::BcastRunResult r = harness::run_broadcast(spec);
  out.latency_us = r.latency_us.mean();
  out.throughput_mbps = r.throughput_mbps;
  out.content_ok = r.content_ok;
  return out;
}

double measure_resilience(const ExplorerOptions& o, const DesignPoint& p) {
  harness::FaultRunSpec spec;
  spec.plan.rates.mpb_read = o.fault_rate;
  spec.algorithm_name = p.algorithm;
  spec.params.parties = o.parties;
  spec.params.k = p.k;
  spec.params.chunk_lines = p.chunk_lines;
  spec.params.double_buffering = p.double_buffering;
  spec.message_bytes = p.lines * kCacheLineBytes;
  const harness::FaultSweepResult sweep =
      harness::run_fault_sweep(spec, o.fault_seeds);
  return static_cast<double>(sweep.runs_all_correct) /
         static_cast<double>(o.fault_seeds.size());
}

/// The resilience coordinate used for dominance: unmeasured points compare
/// as 0 when the fault axis is in play.
double resilience_axis(const PointResult& r) {
  return r.resilience < 0.0 ? 0.0 : r.resilience;
}

bool dominates(const PointResult& a, const PointResult& b, bool fault_axis) {
  bool no_worse = a.latency_us <= b.latency_us &&
                  a.throughput_mbps >= b.throughput_mbps;
  bool strictly = a.latency_us < b.latency_us ||
                  a.throughput_mbps > b.throughput_mbps;
  if (fault_axis) {
    no_worse = no_worse && resilience_axis(a) >= resilience_axis(b);
    strictly = strictly || resilience_axis(a) > resilience_axis(b);
  }
  return no_worse && strictly;
}

void mark_front(ExploreResult& result) {
  const bool fault_axis = result.options.fault_rate > 0.0;
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    PointResult& candidate = result.points[i];
    if (!candidate.content_ok) continue;
    bool dominated = false;
    for (const PointResult& other : result.points) {
      if (&other == &candidate || !other.content_ok) continue;
      if (other.point.lines != candidate.point.lines) continue;
      if (dominates(other, candidate, fault_axis)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      candidate.pareto = true;
      result.front.push_back(i);
    }
  }
}

std::string bool_str(bool b) { return b ? "true" : "false"; }

/// Merges per-size winners into decision rules: contiguous sizes that pick
/// the same choice collapse into one band; the final band extends to
/// SIZE_MAX so larger-than-grid queries resolve to the largest band.
void append_band_rules(const std::vector<std::size_t>& sizes,
                       const std::map<std::size_t, coll::Choice>& winner,
                       double max_fault_rate,
                       std::vector<coll::DecisionRule>& rules) {
  const std::size_t first_rule = rules.size();
  for (const std::size_t size : sizes) {
    const auto it = winner.find(size);
    if (it == winner.end()) continue;
    if (rules.size() > first_rule &&
        rules.back().choice.key() == it->second.key()) {
      rules.back().max_lines = size;  // extend the band
    } else {
      rules.push_back(
          coll::DecisionRule{size, kNumCores, max_fault_rate, it->second});
    }
  }
  if (rules.size() > first_rule) rules.back().max_lines = kNoLimit;
}

}  // namespace

std::string DesignPoint::label() const {
  const std::string id = tunable(algorithm) ? choice().key() : algorithm;
  return id + " @" + std::to_string(lines);
}

coll::Choice DesignPoint::choice() const {
  return coll::Choice{algorithm, k, chunk_lines, double_buffering};
}

ExploreResult explore(const ExplorerOptions& options) {
  OCB_REQUIRE(!options.sizes_lines.empty(),
              "explorer needs at least one message size");
  OCB_REQUIRE(options.fault_rate >= 0.0 && options.fault_rate <= 1.0,
              "fault_rate out of [0,1]");
  std::vector<std::string> algos = options.algorithms;
  if (algos.empty()) {
    for (const std::string& name : coll::names()) {
      if (name != "adaptive") algos.push_back(name);
    }
  }
  for (const std::string& name : algos) {
    OCB_REQUIRE(coll::registered(name),
                "explorer grid names unregistered algorithm '" + name + "'");
  }
  OCB_REQUIRE(options.fault_rate == 0.0 || !options.fault_seeds.empty(),
              "resilience measurement needs at least one seed");

  ExploreResult result;
  result.options = options;
  const std::vector<DesignPoint> grid = build_grid(options, algos);
  OCB_REQUIRE(!grid.empty(), "explorer grid is empty (no feasible point)");

  result.points = harness::parallel_map(
      grid.size(),
      [&](std::size_t i) { return measure_point(options, grid[i]); },
      options.threads);

  if (options.fault_rate > 0.0) {
    // Resilience only for the fault harness's algorithms (and, when a
    // subset was requested, only at those sizes); one task per eligible
    // point (each task sweeps its seeds serially).
    const std::vector<std::size_t>& fault_sizes = options.fault_sizes_lines;
    const auto fault_size = [&](std::size_t lines) {
      return fault_sizes.empty() ||
             std::find(fault_sizes.begin(), fault_sizes.end(), lines) !=
                 fault_sizes.end();
    };
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (tunable(grid[i].algorithm) && fault_size(grid[i].lines)) {
        eligible.push_back(i);
      }
    }
    const std::vector<double> scores = harness::parallel_map(
        eligible.size(),
        [&](std::size_t i) {
          return measure_resilience(options, grid[eligible[i]]);
        },
        options.threads);
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      result.points[eligible[i]].resilience = scores[i];
    }
  }

  mark_front(result);
  return result;
}

coll::DecisionTable derive_table(const ExploreResult& result) {
  std::vector<std::size_t> sizes = result.options.sizes_lines;
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());

  // Zero-fault winners: lowest verified latency per size.
  std::map<std::size_t, coll::Choice> best;
  std::map<std::size_t, double> best_latency;
  for (const PointResult& r : result.points) {
    if (!r.content_ok) continue;
    const auto it = best_latency.find(r.point.lines);
    if (it == best_latency.end() || r.latency_us < it->second) {
      best_latency[r.point.lines] = r.latency_us;
      best[r.point.lines] = r.point.choice();
    }
  }
  OCB_REQUIRE(best.size() == sizes.size(),
              "some message size has no verified point; cannot derive a "
              "decision table");

  std::vector<coll::DecisionRule> rules;
  append_band_rules(sizes, best, 0.0, rules);

  // Fault winners: highest resilience, latency as the tie-break.
  std::map<std::size_t, coll::Choice> ft_best;
  std::map<std::size_t, std::pair<double, double>> ft_score;  // (-res, lat)
  for (const PointResult& r : result.points) {
    if (!r.content_ok || r.resilience < 0.0) continue;
    const std::pair<double, double> score{-r.resilience, r.latency_us};
    const auto it = ft_score.find(r.point.lines);
    if (it == ft_score.end() || score < it->second) {
      ft_score[r.point.lines] = score;
      ft_best[r.point.lines] = r.point.choice();
    }
  }
  if (!ft_best.empty()) {
    append_band_rules(sizes, ft_best, 1.0, rules);
  } else {
    // No fault data in this sweep: hand nonzero-fault queries to the
    // checksummed FT protocol with the first band's winning shape.
    const coll::Choice& global = rules.front().choice;
    rules.push_back(coll::DecisionRule{
        kNoLimit, kNumCores, 1.0,
        coll::Choice{"ft-ocbcast", global.k, global.chunk_lines,
                     global.double_buffering}});
  }
  return coll::DecisionTable(std::move(rules));
}

std::string to_json(const ExploreResult& result) {
  const ExplorerOptions& o = result.options;
  std::string out = "{\n  \"schema\": \"ocb-tune-pareto-v1\",\n";
  out += "  \"parties\": " + std::to_string(o.parties) + ",\n";
  char rate[32];
  std::snprintf(rate, sizeof rate, "%.9g", o.fault_rate);
  out += "  \"fault_rate\": " + std::string(rate) + ",\n";
  out += "  \"fault_seeds\": [";
  for (std::size_t i = 0; i < o.fault_seeds.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(o.fault_seeds[i]);
  }
  out += "],\n  \"fault_sizes_lines\": [";
  for (std::size_t i = 0; i < o.fault_sizes_lines.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(o.fault_sizes_lines[i]);
  }
  out += "],\n  \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointResult& r = result.points[i];
    char lat[32], tp[32], res[32];
    std::snprintf(lat, sizeof lat, "%.6f", r.latency_us);
    std::snprintf(tp, sizeof tp, "%.6f", r.throughput_mbps);
    std::snprintf(res, sizeof res, "%.6f", r.resilience);
    out += "    {\"algorithm\": \"" + r.point.algorithm +
           "\", \"lines\": " + std::to_string(r.point.lines) +
           ", \"k\": " + std::to_string(r.point.k) +
           ", \"chunk_lines\": " + std::to_string(r.point.chunk_lines) +
           ", \"double_buffering\": " + bool_str(r.point.double_buffering) +
           ", \"latency_us\": " + lat + ", \"throughput_mbps\": " + tp +
           ", \"content_ok\": " + bool_str(r.content_ok) +
           ", \"iterations\": " + std::to_string(r.iterations) +
           ", \"resilience\": " + res +
           ", \"pareto\": " + bool_str(r.pareto) + "}";
    out += (i + 1 == result.points.size()) ? "\n" : ",\n";
  }
  out += "  ],\n  \"front\": [";
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(result.front[i]);
  }
  out += "],\n  \"decision_table\": " + derive_table(result).to_json();
  // derive_table's record ends with a newline; close after it.
  out += "}\n";
  return out;
}

std::string render_report(const ExploreResult& result) {
  TextTable table({"algorithm", "lines", "k", "chunk", "db", "latency_us",
                   "MB/s", "ok", "resilience", "front"});
  for (const PointResult& r : result.points) {
    const bool knobs = tunable(r.point.algorithm);
    table.add_row({r.point.algorithm, std::to_string(r.point.lines),
                   knobs ? std::to_string(r.point.k) : "-",
                   knobs ? std::to_string(r.point.chunk_lines) : "-",
                   knobs ? (r.point.double_buffering ? "on" : "off") : "-",
                   fmt_fixed(r.latency_us, 3), fmt_fixed(r.throughput_mbps, 3),
                   r.content_ok ? "yes" : "NO",
                   r.resilience < 0.0 ? "-" : fmt_fixed(r.resilience, 2),
                   r.pareto ? "*" : ""});
  }
  std::string out = table.str();
  out += "\nDerived decision table (ocb-tune-decision-v1):\n";
  out += derive_table(result).to_json();
  return out;
}

}  // namespace ocb::tune
