#include "obs/log.h"

#include <cinttypes>
#include <cstdio>

#include "obs/trace.h"

namespace islabel {
namespace obs {

namespace {

/// Appends `value` as a JSON string literal (quotes, backslashes and
/// control characters escaped — everything a sink needs to stay one
/// line per event).
void AppendJsonString(std::string* out, std::string_view value) {
  *out += '"';
  for (char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace

const char* EventLevelName(EventLevel level) {
  switch (level) {
    case EventLevel::kDebug:
      return "debug";
    case EventLevel::kInfo:
      return "info";
    case EventLevel::kWarn:
      return "warn";
    case EventLevel::kError:
      return "error";
  }
  return "unknown";
}

bool ParseEventLevel(std::string_view text, EventLevel* out) {
  if (text == "debug") {
    *out = EventLevel::kDebug;
  } else if (text == "info") {
    *out = EventLevel::kInfo;
  } else if (text == "warn") {
    *out = EventLevel::kWarn;
  } else if (text == "error") {
    *out = EventLevel::kError;
  } else {
    return false;
  }
  return true;
}

EventLog::EventLog(const EventLogOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                       : SystemClock::Default()) {}

std::string EventLog::U64(std::uint64_t v) { return std::to_string(v); }

bool EventLog::Admit(const std::string& event, std::uint64_t now_ms) {
  if (options_.rate_limit_per_sec <= 0) return true;
  const double burst =
      options_.rate_limit_burst > 0 ? options_.rate_limit_burst : 1.0;
  MutexLock lock(&mu_);
  Bucket& bucket = buckets_[event];
  if (!bucket.primed) {
    bucket.tokens = burst;
    bucket.last_ms = now_ms;
    bucket.primed = true;
  }
  if (now_ms > bucket.last_ms) {
    bucket.tokens += static_cast<double>(now_ms - bucket.last_ms) *
                     options_.rate_limit_per_sec / 1000.0;
    if (bucket.tokens > burst) bucket.tokens = burst;
    bucket.last_ms = now_ms;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

void EventLog::Log(EventLevel level, const char* event, const Fields& fields) {
  if (static_cast<int>(level) < static_cast<int>(options_.min_level)) return;
  const std::uint64_t now_ms = clock_->NowMs();
  if (!Admit(event, now_ms)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!options_.sink) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  std::string line = "{\"ts_ms\":";
  line += std::to_string(now_ms);
  line += ",\"level\":";
  AppendJsonString(&line, EventLevelName(level));
  line += ",\"event\":";
  AppendJsonString(&line, event);
  bool have_tid = false;
  for (const auto& [key, value] : fields) {
    if (key == "tid") have_tid = true;
    (void)value;
  }
  if (!have_tid) {
    const QueryTrace* trace = CurrentTrace();
    if (trace != nullptr && trace->trace_id() != 0) {
      line += ",\"tid\":";
      AppendJsonString(&line, FormatTraceId(trace->trace_id()));
    }
  }
  for (const auto& [key, value] : fields) {
    line += ',';
    AppendJsonString(&line, key);
    line += ':';
    AppendJsonString(&line, value);
  }
  line += '}';
  options_.sink(line);
}

}  // namespace obs
}  // namespace islabel
