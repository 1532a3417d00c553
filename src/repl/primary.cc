#include "repl/primary.h"

#include "repl/snapshot.h"

namespace islabel {
namespace repl {

PrimaryHooks::PrimaryHooks(Catalog* catalog, std::size_t chunk_bytes)
    : catalog_(catalog), chunk_bytes_(chunk_bytes) {
  obs::MetricRegistry* reg = catalog_->metrics();
  heartbeats_ = reg->GetCounter("islabel_repl_heartbeats_total",
                                "Heartbeat requests answered.");
  snapshots_sent_ = reg->GetCounter("islabel_repl_snapshots_sent_total",
                                    "Snapshot streams served to replicas.");
  snapshot_bytes_sent_ =
      reg->GetCounter("islabel_repl_snapshot_bytes_sent_total",
                      "Container bytes shipped in snapshot streams.");
  snapshot_chunks_sent_ =
      reg->GetCounter("islabel_repl_snapshot_chunks_sent_total",
                      "Checksummed chunks shipped in snapshot streams.");
  uptodate_replies_ = reg->GetCounter(
      "islabel_repl_uptodate_replies_total",
      "replicate requests answered uptodate (caller was current).");
}

std::string FormatVersionLine(const Catalog& catalog) {
  std::string out = "version:";
  for (const std::string& name : catalog.Names()) {
    out += ' ';
    out += name;
    out += ':';
    out += std::to_string(catalog.Generation(name));
  }
  return out;
}

std::string PrimaryHooks::HandleVersion() {
  return FormatVersionLine(*catalog_);
}

std::string PrimaryHooks::HandleHeartbeat() {
  heartbeats_->Inc();
  return "pong";
}

std::string PrimaryHooks::HandleReplicate(const std::string& name,
                                          std::uint64_t have_gen) {
  if (!catalog_->Get(name)) {
    return "error: NotFound: unknown dataset " + name;
  }
  // A reload can land while we pack; the generation is re-read after
  // packing and the pack retried so one stream never mixes two versions.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t gen = catalog_->Generation(name);
    if (gen <= have_gen) {
      uptodate_replies_->Inc();
      return "uptodate " + name + " " + std::to_string(gen);
    }
    const std::string dir = catalog_->Dir(name);
    if (dir.empty()) {
      return "error: FailedPrecondition: dataset " + name +
             " has no backing directory to snapshot";
    }
    std::string blob;
    const Status st = BuildSnapshot(dir, &blob);
    if (!st.ok()) return "error: " + st.ToString();
    if (catalog_->Generation(name) != gen) continue;  // torn pack: retry

    const std::size_t nchunks =
        blob.empty() ? 0 : (blob.size() + chunk_bytes_ - 1) / chunk_bytes_;
    std::string out = "snapshot " + name + " " + std::to_string(gen) + " " +
                      std::to_string(nchunks) + " " +
                      std::to_string(blob.size());
    for (std::size_t i = 0; i < nchunks; ++i) {
      const std::string_view chunk =
          std::string_view(blob).substr(i * chunk_bytes_, chunk_bytes_);
      out += "\nchunk " + std::to_string(i) + " " +
             std::to_string(chunk.size()) + " " +
             std::to_string(Crc32(chunk));
      out += '\n';
      out.append(chunk.data(), chunk.size());
    }
    out += "\nend " + std::to_string(Crc32(blob));
    snapshots_sent_->Inc();
    snapshot_bytes_sent_->Inc(blob.size());
    snapshot_chunks_sent_->Inc(nchunks);
    return out;
  }
  return "error: Unavailable: dataset " + name +
         " keeps reloading mid-snapshot, retry";
}

}  // namespace repl
}  // namespace islabel
