// Chrome trace_event JSON export of a simulated run.
//
// JsonTraceCollector buffers TraceEvents and renders them in the Chrome
// tracing / Perfetto "traceEvents" JSON format: one complete ("ph":"X")
// event per transaction, pid 0, tid = core id, microsecond timestamps.
// Load the file at chrome://tracing or https://ui.perfetto.dev to scrub a
// per-core timeline of a collective.
//
//   scc::JsonTraceCollector trace;
//   chip.set_trace_sink(trace.sink());
//   ... run ...
//   trace.write_file("bcast.trace.json");
#pragma once

#include <string>
#include <vector>

#include "scc/trace.h"

namespace ocb::scc {

class JsonTraceCollector {
 public:
  /// A cross-core arrow in the rendered timeline ("ph":"s" → "ph":"f"
  /// flow-event pair). The race checker emits one per violation, linking
  /// the two conflicting transactions.
  struct Flow {
    std::string name;
    CoreId from_core;
    sim::Time from_time;
    CoreId to_core;
    sim::Time to_time;
  };

  /// A labelled interval on a core's timeline, rendered as a complete
  /// ("ph":"X") event in its own category. The broadcast service emits one
  /// span per request (arrival → completion, tid = root core) so the
  /// request lifecycle overlays the per-transaction rows.
  struct Span {
    std::string name;
    std::string category;
    CoreId core;
    sim::Time start;
    sim::Time end;
    std::string args_json;  ///< extra "args" fields, e.g. "\"bytes\":4096"
  };

  /// A sink to install with SccChip::set_trace_sink. The collector must
  /// outlive the chip's use of the sink.
  TraceSink sink() {
    return [this](const TraceEvent& e) { events_.push_back(e); };
  }

  void add_flow(Flow flow) { flows_.push_back(std::move(flow)); }
  void add_span(Span span) { spans_.push_back(std::move(span)); }

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<Flow>& flows() const { return flows_; }
  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    events_.clear();
    flows_.clear();
    spans_.clear();
  }

  /// Renders the buffered events as a complete trace_event JSON document.
  std::string to_json() const;

  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<Flow> flows_;
  std::vector<Span> spans_;
};

}  // namespace ocb::scc
