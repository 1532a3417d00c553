#include "server/protocol.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>

#include "obs/trace.h"

namespace islabel {
namespace server {

namespace {

constexpr std::string_view kUsageDistance = "error: usage: S T";
constexpr std::string_view kUsageOne = "error: usage: one S T1 [T2 ...]";
constexpr std::string_view kUsagePath = "error: usage: path S T";
constexpr std::string_view kUsageUse = "error: usage: use NAME";
constexpr std::string_view kUsageReload = "error: usage: reload NAME";
constexpr std::string_view kUsageReplicate =
    "error: usage: replicate NAME GEN";
constexpr std::string_view kUsageTid =
    "error: usage: tid=HEX (1-16 hex digits, nonzero)";
constexpr std::string_view kUsageTracez =
    "error: usage: tracez [slow|errors|id HEX] [N]";

/// Splits on runs of spaces/tabs (the only separators the grammar allows).
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  return tokens;
}

/// Strict decimal uint32: the whole token must be digits and fit VertexId.
bool ParseVertexId(std::string_view token, VertexId* out) {
  std::uint32_t value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value, 10);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

/// Strict decimal uint64 (replication generations).
bool ParseU64(std::string_view token, std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value, 10);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

Request Invalid(std::string_view usage) {
  Request r;
  r.kind = RequestKind::kInvalid;
  r.error = std::string(usage);
  return r;
}

}  // namespace

// [A-Za-z0-9._-] keeps every response line free of spaces/colons inside
// names.
bool IsValidDatasetName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

Request ParseRequest(std::string_view line) {
  // Strip a trailing '\r' so CRLF clients (telnet, netcat -C) work.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  Request r;
  std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0].front() == '#') return r;  // kNone

  // The optional trailing trace-id token is stripped BEFORE the
  // per-verb token counts are checked, so every verb accepts it.
  if (tokens.back().size() >= 4 &&
      tokens.back().compare(0, 4, "tid=") == 0) {
    if (!obs::ParseTraceId(tokens.back().substr(4), &r.trace_id)) {
      return Invalid(kUsageTid);
    }
    tokens.pop_back();
    if (tokens.empty()) return Invalid(kUsageTid);  // a bare tid token
  }

  const std::string_view head = tokens[0];
  if (head == "quit" || head == "exit") {
    if (tokens.size() != 1) return Invalid("error: usage: quit");
    r.kind = RequestKind::kQuit;
    return r;
  }
  if (head == "metrics") {
    if (tokens.size() != 1) return Invalid("error: usage: metrics");
    r.kind = RequestKind::kMetrics;
    return r;
  }
  if (head == "tracez") {
    // tracez [N] | tracez slow [N] | tracez errors [N] | tracez id HEX
    r.kind = RequestKind::kTracez;
    r.name = "recent";
    std::size_t i = 1;
    if (i < tokens.size() && (tokens[i] == "slow" || tokens[i] == "errors")) {
      r.name = std::string(tokens[i]);
      ++i;
    } else if (i < tokens.size() && tokens[i] == "id") {
      std::uint64_t id = 0;
      if (i + 1 >= tokens.size() || !obs::ParseTraceId(tokens[i + 1], &id)) {
        return Invalid(kUsageTracez);
      }
      // The lookup key wins trace_id over any trailing tid= tag on the
      // scrape request itself.
      r.name = "id";
      r.trace_id = id;
      i += 2;
      if (i != tokens.size()) return Invalid(kUsageTracez);
      return r;
    }
    if (i < tokens.size()) {
      if (!ParseU64(tokens[i], &r.limit) || r.limit == 0) {
        return Invalid(kUsageTracez);
      }
      ++i;
    }
    if (i != tokens.size()) return Invalid(kUsageTracez);
    return r;
  }
  if (head == "datasets") {
    if (tokens.size() != 1) return Invalid("error: usage: datasets");
    r.kind = RequestKind::kDatasets;
    return r;
  }
  if (head == "use") {
    if (tokens.size() != 2 || !IsValidDatasetName(tokens[1])) {
      return Invalid(kUsageUse);
    }
    r.kind = RequestKind::kUse;
    r.name = std::string(tokens[1]);
    return r;
  }
  if (head == "reload") {
    if (tokens.size() != 2 || !IsValidDatasetName(tokens[1])) {
      return Invalid(kUsageReload);
    }
    r.kind = RequestKind::kReload;
    r.name = std::string(tokens[1]);
    return r;
  }
  if (head == "version") {
    if (tokens.size() != 1) return Invalid("error: usage: version");
    r.kind = RequestKind::kVersion;
    return r;
  }
  if (head == "heartbeat") {
    if (tokens.size() != 1) return Invalid("error: usage: heartbeat");
    r.kind = RequestKind::kHeartbeat;
    return r;
  }
  if (head == "replicate") {
    if (tokens.size() != 3 || !IsValidDatasetName(tokens[1]) ||
        !ParseU64(tokens[2], &r.gen)) {
      return Invalid(kUsageReplicate);
    }
    r.kind = RequestKind::kReplicate;
    r.name = std::string(tokens[1]);
    return r;
  }
  if (head == "one") {
    if (tokens.size() < 3) return Invalid(kUsageOne);
    if (!ParseVertexId(tokens[1], &r.s)) return Invalid(kUsageOne);
    r.targets.reserve(tokens.size() - 2);
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      VertexId t = 0;
      if (!ParseVertexId(tokens[i], &t)) return Invalid(kUsageOne);
      r.targets.push_back(t);
    }
    r.kind = RequestKind::kOneToMany;
    return r;
  }
  if (head == "path") {
    if (tokens.size() != 3 || !ParseVertexId(tokens[1], &r.s) ||
        !ParseVertexId(tokens[2], &r.t)) {
      return Invalid(kUsagePath);
    }
    r.kind = RequestKind::kPath;
    return r;
  }

  // Bare "S T" distance query. A numeric head with the wrong shape
  // (missing T, trailing garbage, bad id) is a usage error; a non-numeric
  // head is an unknown verb.
  VertexId s = 0;
  if (!ParseVertexId(head, &s)) {
    Request bad;
    bad.kind = RequestKind::kInvalid;
    bad.error = "error: unrecognized request: " + std::string(line);
    return bad;
  }
  if (tokens.size() != 2 || !ParseVertexId(tokens[1], &r.t)) {
    return Invalid(kUsageDistance);
  }
  r.s = s;
  r.kind = RequestKind::kDistance;
  return r;
}

std::string FormatDistance(Distance d) {
  if (d == kInfDistance) return "unreachable";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, d);
  return buf;
}

std::string FormatDistances(const std::vector<Distance>& dists) {
  std::string out;
  for (std::size_t i = 0; i < dists.size(); ++i) {
    if (i != 0) out += ' ';
    out += FormatDistance(dists[i]);
  }
  return out;
}

std::string FormatPath(Distance d, const std::vector<VertexId>& path) {
  if (d == kInfDistance) return "unreachable";
  std::string out = FormatDistance(d);
  out += ':';
  char buf[16];
  for (VertexId v : path) {
    std::snprintf(buf, sizeof(buf), " %u", v);
    out += buf;
  }
  return out;
}

std::string FormatError(const Status& st) {
  return "error: " + st.ToString();
}

std::string FormatDatasets(const std::vector<DatasetCounters>& datasets) {
  std::string out = "datasets:";
  for (const DatasetCounters& d : datasets) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ":%s:%u:%" PRIu64, d.state.c_str(),
                  d.parts, d.vertices);
    out += ' ';
    out += d.name;
    out += buf;
    out += ':';
    out += d.backends.empty() ? "-" : d.backends;
  }
  return out;
}

}  // namespace server
}  // namespace islabel
