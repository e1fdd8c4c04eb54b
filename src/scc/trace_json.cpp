#include "scc/trace_json.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "sim/time.h"

namespace ocb::scc {

namespace {

void append_us(std::string& out, sim::Time t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", sim::to_us(t));
  out += buf;
}

}  // namespace

std::string JsonTraceCollector::to_json() const {
  // Cores that appear in the trace, for thread_name metadata rows.
  std::vector<CoreId> cores;
  for (const TraceEvent& e : events_) cores.push_back(e.core);
  for (const Span& s : spans_) cores.push_back(s.core);
  std::sort(cores.begin(), cores.end());
  cores.erase(std::unique(cores.begin(), cores.end()), cores.end());

  std::string out;
  out.reserve(events_.size() * 128 + 512);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (CoreId c : cores) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(c);
    out += ",\"args\":{\"name\":\"core ";
    out += std::to_string(c);
    out += "\"}}";
  }
  for (const TraceEvent& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += trace_op_name(e.op);
    out += "\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    out += std::to_string(e.core);
    out += ",\"ts\":";
    append_us(out, e.start);
    out += ",\"dur\":";
    append_us(out, e.end - e.start);
    out += ",\"args\":{\"target\":";
    out += std::to_string(e.target);
    out += ",\"index\":";
    out += std::to_string(e.index);
    out += "}}";
  }
  for (const Span& s : spans_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"ph\":\"X\",\"cat\":\"";
    out += s.category;
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(s.core);
    out += ",\"ts\":";
    append_us(out, s.start);
    out += ",\"dur\":";
    append_us(out, s.end - s.start);
    out += ",\"args\":{";
    out += s.args_json;
    out += "}}";
  }
  std::size_t flow_id = 0;
  for (const Flow& fl : flows_) {
    ++flow_id;
    for (int half = 0; half < 2; ++half) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += fl.name;
      out += half == 0 ? "\",\"ph\":\"s\",\"cat\":\"race\",\"pid\":0,\"tid\":"
                       : "\",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"race\",\"pid\":0,\"tid\":";
      out += std::to_string(half == 0 ? fl.from_core : fl.to_core);
      out += ",\"ts\":";
      append_us(out, half == 0 ? fl.from_time : fl.to_time);
      out += ",\"id\":";
      out += std::to_string(flow_id);
      out += "}";
    }
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

bool JsonTraceCollector::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_json();
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const int rc = std::fclose(f);
  return written == doc.size() && rc == 0;
}

}  // namespace ocb::scc
