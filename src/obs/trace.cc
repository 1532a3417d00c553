#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace islabel {
namespace obs {
namespace {

thread_local QueryTrace* g_current_trace = nullptr;

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kParse:
      return "parse";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kPoolWait:
      return "pool_wait";
    case Stage::kKernel:
      return "kernel";
    case Stage::kEncode:
      return "encode";
  }
  return "unknown";
}

QueryTrace* CurrentTrace() { return g_current_trace; }

TraceScope::TraceScope(QueryTrace* trace) : prev_(g_current_trace) {
  g_current_trace = trace;
}

TraceScope::~TraceScope() { g_current_trace = prev_; }

std::string FormatTraceId(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%" PRIx64, id);
  return std::string(buf);
}

bool ParseTraceId(std::string_view token, std::uint64_t* out) {
  if (token.empty() || token.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  if (value == 0) return false;
  *out = value;
  return true;
}

}  // namespace obs
}  // namespace islabel
