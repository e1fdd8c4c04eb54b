#include "sim/counters.h"

namespace ocb::sim {

namespace {

struct Field {
  const char* name;
  std::uint64_t Counters::*member;
};

constexpr Field kFields[] = {
    {"frame_allocs", &Counters::frame_allocs},
    {"frame_reuses", &Counters::frame_reuses},
    {"bulk_ops", &Counters::bulk_ops},
    {"bulk_ops_observed", &Counters::bulk_ops_observed},
    {"bulk_quiescent_ops", &Counters::bulk_quiescent_ops},
    {"bulk_fallback_ops", &Counters::bulk_fallback_ops},
    {"bulk_fallback_lines", &Counters::bulk_fallback_lines},
};

}  // namespace

Counters& Counters::operator+=(const Counters& other) {
  for (const Field& f : kFields) this->*f.member += other.*f.member;
  return *this;
}

Counters operator-(Counters later, const Counters& earlier) {
  for (const Field& f : kFields) later.*f.member -= earlier.*f.member;
  return later;
}

std::string Counters::to_json(std::string_view separator) const {
  std::string out;
  for (const Field& f : kFields) {
    if (!out.empty()) out += separator;
    out += '"';
    out += f.name;
    out += "\": ";
    out += std::to_string(this->*f.member);
  }
  return out;
}

}  // namespace ocb::sim
