#include "harness/parallel.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace ocb::harness {

detail::EnvParse detail::parse_thread_env(const char* value, unsigned& out) {
  if (value == nullptr) return EnvParse::kUnset;
  // Strict parse: the whole string must be decimal digits ("7abc", "-3",
  // " 4", "+4", "" and overflow are all malformed, unlike the previous
  // stol-based parse which silently accepted trailing garbage — strtoul
  // alone would also skip leading whitespace and signs).
  if (*value == '\0') return EnvParse::kMalformed;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return EnvParse::kMalformed;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v > 0xffffffffUL) {
    return EnvParse::kMalformed;
  }
  if (v == 0) return EnvParse::kZero;
  out = static_cast<unsigned>(v);
  return EnvParse::kValue;
}

unsigned sweep_threads() {
  // Warn about a malformed value at most once per process: the getter runs
  // once per sweep, and a warning per call would flood stderr on large grids.
  static bool warned = false;
  const char* env = std::getenv("OCB_SWEEP_THREADS");
  unsigned v = 0;
  switch (detail::parse_thread_env(env, v)) {
    case detail::EnvParse::kValue:
      return v;
    case detail::EnvParse::kMalformed:
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "warning: ignoring malformed OCB_SWEEP_THREADS='%s' (want "
                     "a nonnegative integer); using the default\n",
                     env);
      }
      break;  // fall through to the hardware default, like unset
    case detail::EnvParse::kUnset:
    case detail::EnvParse::kZero:
      break;  // 0 and unset both mean "hardware default"
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

}  // namespace ocb::harness
