#include "server/dispatcher.h"

#include <utility>
#include <vector>

namespace islabel {
namespace server {

namespace {

/// The verb→API mapping, written once against the DistanceIndex
/// interface: single-index mode passes the raw backend, catalog mode
/// passes the session's Catalog::Handle (itself a DistanceIndex).
/// `one` and `path` run under a kernel span here (`S T` opens its own in
/// DistanceIndex::Query, after the cache lookup); whatever runs after the
/// last span, response formatting included, is the encode stage that
/// Execute closes, so a traced request splits kernel time from
/// serialization time.
std::string ExecuteQueryVerb(DistanceIndex& backend, const Request& req,
                             bool* error) {
  *error = false;
  switch (req.kind) {
    case RequestKind::kDistance: {
      Distance d = 0;
      Status st = backend.Query(req.s, req.t, &d);
      if (!st.ok()) {
        *error = true;
        return FormatError(st);
      }
      return FormatDistance(d);
    }
    case RequestKind::kOneToMany: {
      std::vector<Distance> dists;
      Status st;
      {
        obs::KernelSpan span;
        st = backend.QueryOneToMany(req.s, req.targets, &dists);
      }
      if (!st.ok()) {
        *error = true;
        return FormatError(st);
      }
      return FormatDistances(dists);
    }
    case RequestKind::kPath: {
      std::vector<VertexId> path;
      Distance d = 0;
      Status st;
      {
        obs::KernelSpan span;
        st = backend.ShortestPath(req.s, req.t, &path, &d);
      }
      if (!st.ok()) {
        *error = true;
        return FormatError(st);
      }
      return FormatPath(d, path);
    }
    default:
      break;
  }
  *error = true;
  return "error: internal: request kind not dispatchable";
}

/// Wire name of a dispatched verb, used as the `verb` label of
/// islabel_server_request_seconds and in slow-query events.
const char* VerbName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kDistance:
      return "distance";
    case RequestKind::kOneToMany:
      return "one";
    case RequestKind::kPath:
      return "path";
    case RequestKind::kUse:
      return "use";
    case RequestKind::kDatasets:
      return "datasets";
    case RequestKind::kReload:
      return "reload";
    case RequestKind::kVersion:
      return "version";
    case RequestKind::kHeartbeat:
      return "heartbeat";
    case RequestKind::kReplicate:
      return "replicate";
    case RequestKind::kMetrics:
      return "metrics";
    case RequestKind::kTracez:
      return "tracez";
    case RequestKind::kInvalid:
      return "invalid";
    default:
      return "other";
  }
}

}  // namespace

std::string RequestDispatcher::ExecuteOnHandle(const Request& req,
                                               Session* session) {
  // Resolve (and cache) the handle once per session, not per query —
  // Catalog::Get takes the catalog-wide lock and scans names.
  if (!session->handle) {
    std::string name =
        session->dataset.empty() ? default_dataset_ : session->dataset;
    if (name.empty()) {
      // A server may start with no default (a replica before its first
      // sync discovers dataset names at runtime). Once exactly one
      // dataset is hosted the choice is unambiguous — serve it, so
      // failover clients can send bare queries to any replica.
      const std::vector<std::string> names = catalog_->Names();
      if (names.size() == 1) name = names.front();
    }
    if (name.empty()) {
      errors_c_->Inc();
      return "error: FailedPrecondition: no dataset selected (server has "
             "no default; pick one with `use NAME`, list with `datasets`)";
    }
    session->handle = catalog_->Get(name);
    if (!session->handle) {
      errors_c_->Inc();
      return "error: NotFound: unknown dataset " + name;
    }
  }
  bool error = false;
  std::string response = ExecuteQueryVerb(session->handle, req, &error);
  if (error) errors_c_->Inc();
  return response;
}

std::string RequestDispatcher::ExecuteInternal(const Request& req,
                                               Session* session) {
  requests_c_->Inc();
  switch (req.kind) {
    case RequestKind::kDistance:
    case RequestKind::kOneToMany:
    case RequestKind::kPath: {
      if (catalog_ != nullptr) return ExecuteOnHandle(req, session);
      bool error = false;
      std::string response = ExecuteQueryVerb(*index_, req, &error);
      if (error) errors_c_->Inc();
      return response;
    }
    case RequestKind::kUse: {
      if (catalog_ == nullptr) break;
      Catalog::Handle handle = catalog_->Get(req.name);
      if (!handle) {
        errors_c_->Inc();
        return "error: NotFound: unknown dataset " + req.name;
      }
      // Switching to a failed or empty dataset is allowed deliberately:
      // the per-query error reports the state, and a dataset that a
      // reload or replica install fills starts answering without a
      // second `use`.
      session->dataset = req.name;
      session->handle = std::move(handle);
      return "ok: using " + req.name;
    }
    case RequestKind::kDatasets: {
      if (catalog_ == nullptr) break;
      return FormatDatasets(DatasetCountersSnapshot());
    }
    case RequestKind::kReload: {
      if (catalog_ == nullptr) break;
      Status st = catalog_->Reload(req.name);
      if (!st.ok()) {
        errors_c_->Inc();
        return FormatError(st);
      }
      return "ok: reloaded " + req.name;
    }
    case RequestKind::kMetrics: {
      if (metrics_ == nullptr) {
        errors_c_->Inc();
        return "error: NotSupported: metrics not enabled";
      }
      // The registry renders with a trailing '\n' after "# EOF"; the
      // Format contract is no trailing newline (front ends append it).
      std::string text = metrics_->RenderPrometheus();
      if (!text.empty() && text.back() == '\n') text.pop_back();
      return text;
    }
    case RequestKind::kTracez: {
      if (recorder_ == nullptr) {
        errors_c_->Inc();
        return "error: NotSupported: flight recorder not enabled";
      }
      obs::FlightRecorder::TracezMode mode =
          obs::FlightRecorder::TracezMode::kRecent;
      if (req.name == "slow") {
        mode = obs::FlightRecorder::TracezMode::kSlow;
      } else if (req.name == "errors") {
        mode = obs::FlightRecorder::TracezMode::kErrors;
      } else if (req.name == "id") {
        mode = obs::FlightRecorder::TracezMode::kById;
      }
      // Default cap of 32 keeps a bare `tracez` glanceable; an id
      // lookup returns every record of that trace (it is bounded by
      // the retry count, not the ring size).
      const std::size_t limit =
          req.limit != 0
              ? static_cast<std::size_t>(req.limit)
              : (mode == obs::FlightRecorder::TracezMode::kById ? 0 : 32);
      return recorder_->RenderTracez(mode, req.trace_id, limit);
    }
    case RequestKind::kVersion:
    case RequestKind::kHeartbeat:
    case RequestKind::kReplicate: {
      if (repl_hooks_ == nullptr) {
        errors_c_->Inc();
        return "error: NotSupported: replication not enabled";
      }
      std::string response =
          req.kind == RequestKind::kVersion ? repl_hooks_->HandleVersion()
          : req.kind == RequestKind::kHeartbeat
              ? repl_hooks_->HandleHeartbeat()
              : repl_hooks_->HandleReplicate(req.name, req.gen);
      if (response.rfind("error: ", 0) == 0) {
        errors_c_->Inc();
      }
      return response;
    }
    case RequestKind::kInvalid:
      errors_c_->Inc();
      return req.error;
    case RequestKind::kNone:
    case RequestKind::kQuit:
      errors_c_->Inc();
      return "error: internal: request kind not dispatchable";
  }
  // A catalog verb reached a single-index server.
  errors_c_->Inc();
  return "error: NotSupported: no catalog (single-dataset server)";
}

std::string RequestDispatcher::Execute(const Request& req, Session* session) {
  const bool metrics_on = metrics_enabled();
  const bool recorder_on = recorder_ != nullptr && recorder_->enabled();
  if (!metrics_on && !recorder_on) {
    return ExecuteInternal(req, session);
  }
  // The trace lives on this stack frame; layers below find it through
  // the thread-local installed by TraceScope. parse_us was measured by
  // the front end before Execute, so it is seeded rather than timed.
  // Each stage boundary is one clock read (DESIGN.md §16.2): the trace
  // reads the clock here, the spans below close their stages, and the
  // last read closes encode.
  obs::QueryTrace trace(clock_);
  trace.Add(obs::Stage::kParse, req.parse_us);
  trace.set_trace_id(req.trace_id);
  obs::TraceScope scope(&trace);
  std::string response = ExecuteInternal(req, session);
  const bool query_verb = req.kind == RequestKind::kDistance ||
                          req.kind == RequestKind::kOneToMany ||
                          req.kind == RequestKind::kPath;
  if (query_verb) {
    trace.Close(obs::Stage::kEncode);
  } else {
    trace.Mark();
  }
  const std::uint64_t total_ns = trace.TotalNanos();
  const std::uint64_t total_us = total_ns / 1000;

  if (metrics_on) {
    obs::Histogram* vh = verb_hist_[static_cast<int>(req.kind)];
    if (vh != nullptr) vh->RecordNanos(total_ns);
    if (query_verb) {
      // Zeros are recorded too, so every stage's _count equals the query
      // count and per-stage averages are directly comparable.
      for (int i = 0; i < obs::kNumStages; ++i) {
        stage_hist_[i]->RecordNanos(
            trace.StageNanos(static_cast<obs::Stage>(i)));
      }
    }
  }
  if (recorder_on && req.kind != RequestKind::kTracez) {
    // tracez requests are not recorded, so scraping the recorder does
    // not fill it with scrapes.
    const bool is_error = response.rfind("error: ", 0) == 0;
    const std::string& dataset =
        session->dataset.empty() ? default_dataset_ : session->dataset;
    recorder_->Record(VerbName(req.kind), dataset, is_error, total_us,
                      trace);
  }
  if (slow_query_threshold_ms_ > 0 &&
      total_us >= slow_query_threshold_ms_ * 1000) {
    if (slow_queries_ != nullptr) slow_queries_->Inc();
    if (event_log_ != nullptr) {
      // The TraceScope is still active, so the event auto-attaches the
      // request's trace id.
      event_log_->Log(
          obs::EventLevel::kWarn, "islabel.server.slow_query",
          {{"verb", VerbName(req.kind)},
           {"total_us", obs::EventLog::U64(total_us)},
           {"parse_us",
            obs::EventLog::U64(trace.StageMicros(obs::Stage::kParse))},
           {"cache_us",
            obs::EventLog::U64(trace.StageMicros(obs::Stage::kCacheLookup))},
           {"pool_wait_us",
            obs::EventLog::U64(trace.StageMicros(obs::Stage::kPoolWait))},
           {"kernel_us",
            obs::EventLog::U64(trace.StageMicros(obs::Stage::kKernel))},
           {"encode_us",
            obs::EventLog::U64(trace.StageMicros(obs::Stage::kEncode))}});
    }
  }
  return response;
}

void RequestDispatcher::InstallMetrics(const MetricsOptions& options) {
  if (options.registry == nullptr && options.flight_recorder == nullptr &&
      options.event_log == nullptr) {
    return;
  }
  clock_ = options.clock != nullptr ? options.clock : SystemClock::Default();
  slow_query_threshold_ms_ = options.slow_query_threshold_ms;
  recorder_ = options.flight_recorder;
  event_log_ = options.event_log;
  if (options.registry == nullptr) return;
  metrics_ = options.registry;

  requests_c_ = metrics_->GetCounter("islabel_server_requests_total",
                                     "Requests dispatched, all verbs.");
  errors_c_ = metrics_->GetCounter("islabel_server_errors_total",
                                   "Requests answered with an error line.");
  slow_queries_ = metrics_->GetCounter(
      "islabel_server_slow_queries_total",
      "Requests over the slow-query threshold (DESIGN.md §16).");

  static constexpr RequestKind kDispatched[] = {
      RequestKind::kDistance, RequestKind::kOneToMany,
      RequestKind::kPath,     RequestKind::kUse,
      RequestKind::kDatasets, RequestKind::kReload,
      RequestKind::kVersion,  RequestKind::kHeartbeat,
      RequestKind::kReplicate, RequestKind::kMetrics,
      RequestKind::kTracez,   RequestKind::kInvalid};
  for (RequestKind kind : kDispatched) {
    verb_hist_[static_cast<int>(kind)] = metrics_->GetHistogram(
        "islabel_server_request_seconds",
        "End-to-end request latency (parse through encode), per verb.",
        {{"verb", VerbName(kind)}});
  }
  for (int i = 0; i < obs::kNumStages; ++i) {
    stage_hist_[i] = metrics_->GetHistogram(
        "islabel_query_stage_seconds",
        "Per-stage latency of query verbs (zeros recorded for unhit "
        "stages, so every stage's _count equals the query count).",
        {{"stage", obs::StageName(static_cast<obs::Stage>(i))}});
  }
}

std::vector<DatasetCounters> RequestDispatcher::DatasetCountersSnapshot()
    const {
  std::vector<DatasetCounters> out;
  if (catalog_ == nullptr) return out;
  for (const DatasetInfo& info : catalog_->List()) {
    DatasetCounters c;
    c.name = info.name;
    c.state = DatasetStateName(info.state);
    c.parts = info.parts;
    c.vertices = info.vertices;
    c.backends = info.backends;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace server
}  // namespace islabel
