// Wire protocol of the serving layer (stdin serve loop and TCP server).
//
// The protocol is line-oriented text, one request per '\n'-terminated
// line, one response line per request:
//
//   S T              exact distance         → "D" | "unreachable"
//   one S T1 [T2...] one-to-many            → one value per target, spaces
//   path S T         shortest path          → "D: v0 v1 ... vk"
//   use NAME         select catalog dataset → "ok: using NAME"
//   datasets         list catalog datasets  → "datasets: name:state:..."
//   reload NAME      hot-swap reload        → "ok: reloaded NAME"
//   version          dataset generations    → "version: name:gen ..."
//   heartbeat        liveness probe         → "pong"
//   replicate NAME GEN   snapshot pull      → framed snapshot stream
//   metrics          Prometheus exposition  → text format, "# EOF" last
//   tracez [slow|errors|id HEX] [N]         → flight-recorder dump,
//                                             "# EOF" last
//   quit | exit      close the session      → (no response)
//   # comment / blank line                  → (no response)
//
// Any request may carry one optional trailing `tid=<hex>` token (1-16
// hex digits, nonzero): the distributed trace id minted by the client
// (DESIGN.md §17). It is stripped before the per-verb token counts are
// checked — `1 2 tid=a3`, `version tid=a3` and `replicate g1 0 tid=a3`
// are all well-formed — and lands in Request::trace_id. A malformed
// tid token is a usage error like any other grammar violation.
//
// The catalog verbs (use / datasets / reload) are only served by
// catalog-mode servers (multi-dataset hosting); a single-index server
// answers them with an error. Dataset names are restricted to
// [A-Za-z0-9._-] so responses stay single-line and unambiguous.
//
// The replication verbs (version / heartbeat / replicate) are answered
// only when the server has replication hooks installed (see
// server/dispatcher.h); everyone else reports NotSupported. Two verbs
// answer multiple lines: `replicate` streams a framed, checksummed
// snapshot (see repl/primary.h for the framing), and `metrics` returns
// Prometheus text format whose final line is exactly "# EOF" — readers
// consume until that terminator (DESIGN.md §16).
//
// Errors are a single line starting with "error: ". Parsing is strict:
// ids must be pure decimal uint32 tokens and a request must carry exactly
// its grammar's token count — trailing garbage ("1 2 junk") is rejected
// with a usage error instead of being silently ignored.
//
// Both front ends parse with ParseRequest and format with the Format*
// helpers below, so the stdin loop and the TCP server cannot drift. Every
// front end that reads request lines caps them at kMaxRequestLineBytes.

#ifndef ISLABEL_SERVER_PROTOCOL_H_
#define ISLABEL_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_defs.h"
#include "util/status.h"

namespace islabel {
namespace server {

/// The longest request line a front end accepts, its '\n' not counted.
/// 1 MiB bounds a `one S T1 T2...` list. A longer line is answered with
/// kLineTooLongError and ends the session: the TCP server closes the
/// connection and `serve` on stdin stops reading. `islabel batch`, whose
/// input is a file of "S T" lines, names the line and exits 1.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;
inline constexpr char kLineTooLongError[] = "error: request line too long";

enum class RequestKind : std::uint8_t {
  kNone = 0,    // blank line or comment: no response
  kDistance,    // "S T"
  kOneToMany,   // "one S T1 [T2 ...]"
  kPath,        // "path S T"
  kUse,         // "use NAME" (catalog mode)
  kDatasets,    // "datasets" (catalog mode)
  kReload,      // "reload NAME" (catalog mode)
  kVersion,     // "version" (replication)
  kHeartbeat,   // "heartbeat" (replication)
  kReplicate,   // "replicate NAME GEN" (replication)
  kMetrics,     // "metrics" (Prometheus exposition, multi-line)
  kTracez,      // "tracez [slow|errors|id HEX] [N]" (flight recorder)
  kQuit,        // "quit" / "exit"
  kInvalid,     // malformed; `error` holds the full response line
};

/// One parsed request line.
struct Request {
  RequestKind kind = RequestKind::kNone;
  VertexId s = 0;
  VertexId t = 0;
  std::vector<VertexId> targets;  // kOneToMany only
  std::string name;               // kUse / kReload / kReplicate: dataset;
                                  // kTracez: mode (recent|slow|errors|id)
  std::uint64_t gen = 0;          // kReplicate only: caller's generation
  std::string error;              // kInvalid only: "error: ..." line
  /// Distributed trace id from the optional trailing `tid=<hex>` token;
  /// for `tracez id HEX` the id to look up. 0 = absent.
  std::uint64_t trace_id = 0;
  /// kTracez only: the record cap N (0 = the server default).
  std::uint64_t limit = 0;
  /// Parse latency measured by the front end (µs); flows into the
  /// request's QueryTrace. 0 when the front end is not timing.
  std::uint32_t parse_us = 0;
};

/// Parses one request line (no trailing '\n'). Never fails — malformed
/// input yields kInvalid with the error response prefilled.
Request ParseRequest(std::string_view line);

/// True iff `name` is a legal dataset name on the wire: non-empty,
/// [A-Za-z0-9._-] only. The CLI validates --dataset flags against the
/// same grammar so every hosted dataset is addressable by `use`.
bool IsValidDatasetName(std::string_view name);

/// One dataset as the `datasets` verb lists it. Counters live in the
/// metric registry (`islabel_dataset_*`), not here.
struct DatasetCounters {
  std::string name;
  std::string state;  // "ready" | "failed" | "empty"
  std::uint32_t parts = 0;
  std::uint64_t vertices = 0;
  /// Per-part backend summary ("p0=islabel/123,p1=ch/45,..."), colon- and
  /// space-free by construction so it stays one wire token. Empty while
  /// the dataset holds no index (failed or empty).
  std::string backends;
};

// ---- Response formatting (no trailing '\n') ----

std::string FormatDistance(Distance d);
std::string FormatDistances(const std::vector<Distance>& dists);
std::string FormatPath(Distance d, const std::vector<VertexId>& path);
std::string FormatError(const Status& st);
/// "datasets: name:state:parts:vertices:backends ..." (one token per
/// dataset; `backends` is the comma-joined per-part summary, "-" until
/// the dataset is loaded).
std::string FormatDatasets(const std::vector<DatasetCounters>& datasets);

}  // namespace server
}  // namespace islabel

#endif  // ISLABEL_SERVER_PROTOCOL_H_
