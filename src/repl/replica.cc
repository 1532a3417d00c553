#include "repl/replica.h"

#include <charconv>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/trace.h"
#include "repl/primary.h"
#include "repl/snapshot.h"

namespace islabel {
namespace repl {

namespace {

bool ParseU64Token(std::string_view token, std::uint64_t* out) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value, 10);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

std::vector<std::string_view> Split(std::string_view line, char sep) {
  std::vector<std::string_view> out;
  std::size_t begin = 0;
  while (begin <= line.size()) {
    const std::size_t end = std::min(line.find(sep, begin), line.size());
    if (end > begin) out.push_back(line.substr(begin, end - begin));
    if (end == line.size()) break;
    begin = end + 1;
  }
  return out;
}

}  // namespace

ReplicaAgent::ReplicaAgent(Catalog* catalog, Transport* transport,
                           Clock* clock, Rng* rng, ReplicaOptions options)
    : catalog_(catalog),
      transport_(transport),
      clock_(clock),
      rng_(rng),
      options_(std::move(options)),
      backoff_(options_.backoff, rng) {
  InstallMetrics();
}

ReplicaAgent::~ReplicaAgent() {
  StopBackground();
  FreezeMetrics();
}

void ReplicaAgent::InstallMetrics() {
  obs::MetricRegistry* reg = catalog_->metrics();
  polls_c_ = reg->GetCounter("islabel_repl_polls_total",
                             "Sync attempts against the primary.");
  pulls_c_ = reg->GetCounter("islabel_repl_pulls_total",
                             "Snapshot streams received.");
  installs_c_ = reg->GetCounter("islabel_repl_installs_total",
                                "Generations published via ReloadFrom.");
  failures_c_ = reg->GetCounter("islabel_repl_failures_total",
                                "Failed sync attempts.");
  // Live levels come from callbacks evaluated at scrape time — lag is
  // recomputed per sync, but ms-since-contact and primary-up decay with
  // wall time, which a stored gauge cannot express.
  reg->RegisterCallbackGauge(
      "islabel_repl_lag_gens",
      "Sum over datasets of primary generation minus local.", {},
      [this] { return static_cast<double>(stats().lag_gens); });
  reg->RegisterCallbackGauge(
      "islabel_repl_ms_since_contact",
      "Milliseconds since the primary last answered; -1 before first "
      "contact.",
      {}, [this] {
        const Stats s = stats();
        return s.ms_since_contact == ~0ull
                   ? -1.0
                   : static_cast<double>(s.ms_since_contact);
      });
  reg->RegisterCallbackGauge(
      "islabel_repl_primary_up",
      "1 while the last primary contact is fresher than the timeout.", {},
      [this] { return stats().primary_up ? 1.0 : 0.0; });
}

void ReplicaAgent::FreezeMetrics() {
  // The registry outlives this agent; replace the this-capturing
  // callbacks with the final observed values so a later scrape cannot
  // call into freed memory.
  const Stats last = stats();
  obs::MetricRegistry* reg = catalog_->metrics();
  reg->RegisterCallbackGauge(
      "islabel_repl_lag_gens",
      "Sum over datasets of primary generation minus local.", {},
      [v = static_cast<double>(last.lag_gens)] { return v; });
  reg->RegisterCallbackGauge(
      "islabel_repl_ms_since_contact",
      "Milliseconds since the primary last answered; -1 before first "
      "contact.",
      {}, [v = last.ms_since_contact == ~0ull
                   ? -1.0
                   : static_cast<double>(last.ms_since_contact)] {
        return v;
      });
  reg->RegisterCallbackGauge(
      "islabel_repl_primary_up",
      "1 while the last primary contact is fresher than the timeout.", {},
      [v = last.primary_up ? 1.0 : 0.0] { return v; });
}

bool ReplicaAgent::Tick() {
  {
    MutexLock lock(&mu_);
    if (clock_->NowMs() < next_due_ms_) return false;
  }
  // The sync outcome drives backoff; Tick's contract is only "was a sync
  // attempted".
  (void)SyncNow();
  return true;
}

Status ReplicaAgent::SyncNow() {
  // One trace id per sync attempt: the version poll, every replicate
  // pull within it, and the install/failure events all share it, so the
  // primary's flight recorder and both event logs stitch one story.
  std::uint64_t tid = rng_->Next();
  if (tid == 0) tid = 1;
  const Status st = SyncOnce(tid);
  const std::uint64_t now = clock_->NowMs();
  polls_c_->Inc();
  if (!st.ok()) {
    failures_c_->Inc();
    if (options_.event_log != nullptr) {
      options_.event_log->Log(obs::EventLevel::kWarn,
                              "islabel.repl.sync_failed",
                              {{"tid", obs::FormatTraceId(tid)},
                               {"primary", options_.primary},
                               {"error", st.ToString()}});
    }
  }
  MutexLock lock(&mu_);
  if (st.ok()) {
    backoff_.Reset();
    next_due_ms_ = now + options_.poll_interval_ms;
  } else {
    next_due_ms_ = now + backoff_.NextDelayMs();
  }
  return st;
}

Status ReplicaAgent::SyncOnce(std::uint64_t trace_id) {
  Result<std::unique_ptr<Connection>> conn =
      transport_->Connect(options_.primary, options_.request_timeout_ms);
  if (!conn.ok()) return conn.status();
  Channel channel(std::move(conn).value());

  // Tag the poll with this sync's trace id so the primary's flight
  // recorder shows the whole pull under one `tracez id` (the tid=
  // token is stripped before per-verb token counts, protocol.h).
  const std::string tid_token = " tid=" + obs::FormatTraceId(trace_id);
  std::string line;
  {
    const Deadline deadline =
        Deadline::After(options_.request_timeout_ms, clock_);
    ISLABEL_RETURN_IF_ERROR(channel.SendLine("version" + tid_token));
    ISLABEL_RETURN_IF_ERROR(channel.ReadLine(&line, deadline));
  }
  if (line.rfind("version:", 0) != 0) {
    return Status::Corruption("unexpected version reply: " + line);
  }
  {
    MutexLock lock(&mu_);
    contacted_ = true;
    last_contact_ms_ = clock_->NowMs();
  }

  // "version: NAME:GEN NAME:GEN ..."
  std::vector<std::pair<std::string, std::uint64_t>> primary_gens;
  for (std::string_view token :
       Split(std::string_view(line).substr(8), ' ')) {
    const std::size_t colon = token.rfind(':');
    std::uint64_t gen = 0;
    if (colon == std::string_view::npos || colon == 0 ||
        !ParseU64Token(token.substr(colon + 1), &gen)) {
      return Status::Corruption("bad version entry '" + std::string(token) +
                                "'");
    }
    primary_gens.emplace_back(std::string(token.substr(0, colon)), gen);
  }

  Status first_error = Status::OK();
  std::uint64_t lag = 0;
  for (const auto& [name, primary_gen] : primary_gens) {
    if (!catalog_->Get(name)) {
      // First time we hear of this dataset: register it empty so the
      // serving side can already answer `use` (queries report
      // FailedPrecondition until the first install).
      const Status st = catalog_->AddEmpty(name);
      if (!st.ok() && first_error.ok()) first_error = st;
    }
    const std::uint64_t local = catalog_->Generation(name);
    if (primary_gen > local) {
      const Status st =
          PullDataset(&channel, name, local, primary_gen, trace_id);
      if (!st.ok() && first_error.ok()) first_error = st;
    }
    const std::uint64_t now_local = catalog_->Generation(name);
    lag += primary_gen > now_local ? primary_gen - now_local : 0;
  }
  {
    MutexLock lock(&mu_);
    lag_gens_ = lag;
    if (first_error.ok()) {
      contacted_ = true;
      last_contact_ms_ = clock_->NowMs();
    }
  }
  return first_error;
}

Status ReplicaAgent::PullDataset(Channel* channel, const std::string& name,
                                 std::uint64_t local_gen,
                                 std::uint64_t target_gen,
                                 std::uint64_t trace_id) {
  (void)target_gen;  // informational; the stream header is authoritative
  const Deadline deadline =
      Deadline::After(options_.request_timeout_ms, clock_);
  ISLABEL_RETURN_IF_ERROR(channel->SendLine(
      "replicate " + name + " " + std::to_string(local_gen) + " tid=" +
      obs::FormatTraceId(trace_id)));
  std::string header;
  ISLABEL_RETURN_IF_ERROR(channel->ReadLine(&header, deadline));
  if (header.rfind("uptodate ", 0) == 0) return Status::OK();
  if (header.rfind("error: ", 0) == 0) {
    return Status::Unavailable("primary refused replicate " + name + ": " +
                               header);
  }
  const std::vector<std::string_view> head = Split(header, ' ');
  std::uint64_t gen = 0, nchunks = 0, total = 0;
  if (head.size() != 5 || head[0] != "snapshot" || head[1] != name ||
      !ParseU64Token(head[2], &gen) || !ParseU64Token(head[3], &nchunks) ||
      !ParseU64Token(head[4], &total)) {
    return Status::Corruption("bad snapshot header: " + header);
  }
  if (total > options_.max_snapshot_bytes) {
    return Status::Corruption("snapshot for " + name + " too large (" +
                              std::to_string(total) + " bytes)");
  }

  std::string blob;
  blob.reserve(static_cast<std::size_t>(total));
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    std::string chunk_line;
    ISLABEL_RETURN_IF_ERROR(channel->ReadLine(&chunk_line, deadline));
    const std::vector<std::string_view> ch = Split(chunk_line, ' ');
    std::uint64_t idx = 0, nbytes = 0, crc = 0;
    if (ch.size() != 4 || ch[0] != "chunk" || !ParseU64Token(ch[1], &idx) ||
        !ParseU64Token(ch[2], &nbytes) || !ParseU64Token(ch[3], &crc) ||
        idx != i || blob.size() + nbytes > total) {
      return Status::Corruption("bad chunk header: " + chunk_line);
    }
    const std::size_t off = blob.size();
    ISLABEL_RETURN_IF_ERROR(channel->ReadExact(
        &blob, static_cast<std::size_t>(nbytes), deadline));
    if (Crc32(std::string_view(blob).substr(off)) !=
        static_cast<std::uint32_t>(crc)) {
      return Status::Corruption("chunk " + std::to_string(i) +
                                " checksum mismatch for " + name);
    }
    // The raw bytes are terminated by a newline before the next chunk
    // header (or the trailer); anything else on that line is garbage.
    std::string separator;
    ISLABEL_RETURN_IF_ERROR(channel->ReadLine(&separator, deadline));
    if (!separator.empty()) {
      return Status::Corruption("trailing bytes after chunk " +
                                std::to_string(i) + ": " + separator);
    }
  }
  std::string end_line;
  ISLABEL_RETURN_IF_ERROR(channel->ReadLine(&end_line, deadline));
  const std::vector<std::string_view> tail = Split(end_line, ' ');
  std::uint64_t container_crc = 0;
  if (tail.size() != 2 || tail[0] != "end" ||
      !ParseU64Token(tail[1], &container_crc)) {
    return Status::Corruption("bad snapshot trailer: " + end_line);
  }
  if (blob.size() != total ||
      Crc32(blob) != static_cast<std::uint32_t>(container_crc)) {
    return Status::Corruption("snapshot stream checksum mismatch for " +
                              name);
  }
  pulls_c_->Inc();
  if (options_.event_log != nullptr) {
    options_.event_log->Log(obs::EventLevel::kInfo, "islabel.repl.pull",
                            {{"tid", obs::FormatTraceId(trace_id)},
                             {"dataset", name},
                             {"gen", obs::EventLog::U64(gen)},
                             {"bytes", obs::EventLog::U64(total)}});
  }

  // Validate fully, stage, rename, publish — a failure anywhere leaves
  // the currently-serving generation untouched.
  ISLABEL_RETURN_IF_ERROR(ValidateSnapshot(blob, nullptr));
  namespace fs = std::filesystem;
  const fs::path base = fs::path(options_.root) / name;
  const fs::path staging = base / (".staging-" + std::to_string(gen));
  const fs::path final_dir = base / ("gen-" + std::to_string(gen));
  std::error_code ec;
  fs::remove_all(staging, ec);
  ISLABEL_RETURN_IF_ERROR(InstallSnapshot(blob, staging.string()));
  fs::remove_all(final_dir, ec);
  ec.clear();
  fs::rename(staging, final_dir, ec);
  if (ec) {
    return Status::IOError("cannot publish " + final_dir.string() + ": " +
                           ec.message());
  }
  ISLABEL_RETURN_IF_ERROR(
      catalog_->ReloadFrom(name, final_dir.string(), gen));
  installs_c_->Inc();
  if (options_.event_log != nullptr) {
    options_.event_log->Log(obs::EventLevel::kInfo, "islabel.repl.install",
                            {{"tid", obs::FormatTraceId(trace_id)},
                             {"dataset", name},
                             {"gen", obs::EventLog::U64(gen)},
                             {"from_gen", obs::EventLog::U64(local_gen)}});
  }

  // Best-effort cleanup of superseded generations and stale staging
  // directories; in-flight queries pin the old index in memory, not on
  // disk, so removal is safe after the swap.
  const std::string keep = final_dir.filename().string();
  for (fs::directory_iterator it(base, ec), dir_end; !ec && it != dir_end;
       it.increment(ec)) {
    const std::string entry = it->path().filename().string();
    if (entry == keep) continue;
    if (entry.rfind("gen-", 0) == 0 || entry.rfind(".staging-", 0) == 0) {
      std::error_code rm_ec;
      fs::remove_all(it->path(), rm_ec);
    }
  }
  return Status::OK();
}

void ReplicaAgent::RunBackground() {
  if (bg_thread_.joinable()) return;
  bg_stop_.store(false, std::memory_order_release);
  bg_thread_ = std::thread([this] {
    while (!bg_stop_.load(std::memory_order_acquire)) {
      Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

void ReplicaAgent::StopBackground() {
  bg_stop_.store(true, std::memory_order_release);
  if (bg_thread_.joinable()) bg_thread_.join();
}

bool ReplicaAgent::primary_up() const {
  MutexLock lock(&mu_);
  return contacted_ &&
         clock_->NowMs() - last_contact_ms_ <= options_.primary_timeout_ms;
}

ReplicaAgent::Stats ReplicaAgent::stats() const {
  Stats s;
  s.polls = polls_c_->Value();
  s.pulls = pulls_c_->Value();
  s.installs = installs_c_->Value();
  s.failures = failures_c_->Value();
  MutexLock lock(&mu_);
  s.lag_gens = lag_gens_;
  const std::uint64_t now = clock_->NowMs();
  s.ms_since_contact = contacted_ ? now - last_contact_ms_ : ~0ull;
  s.primary_up =
      contacted_ && now - last_contact_ms_ <= options_.primary_timeout_ms;
  return s;
}

std::string ReplicaAgent::HandleVersion() {
  return FormatVersionLine(*catalog_);
}

std::string ReplicaAgent::HandleHeartbeat() { return "pong"; }

std::string ReplicaAgent::HandleReplicate(const std::string& name,
                                          std::uint64_t /*have_gen*/) {
  return "error: NotSupported: replica does not serve snapshots (" + name +
         ")";
}

}  // namespace repl
}  // namespace islabel
