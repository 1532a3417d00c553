// PrimaryHooks: the primary side of the replication protocol, installed
// on a catalog-mode server via RequestDispatcher::set_replication_hooks.
//
// The primary is passive: replicas pull. Three verbs:
//
//   version            → "version: NAME:GEN ..." (every hosted dataset)
//   heartbeat          → "pong"
//   replicate NAME GEN → "uptodate NAME GEN" when the caller is current,
//                        otherwise a framed snapshot stream:
//
//     snapshot NAME GEN NCHUNKS TOTALBYTES
//     chunk 0 NBYTES CRC32(chunk)
//     <NBYTES raw container bytes>
//     ...
//     end CRC32(container)
//
// The stream carries the snapshot container of repl/snapshot.h split
// into fixed-size chunks, each with its own CRC so a receiver can abort
// a damaged transfer early; the container self-validates again before
// install. GEN is the catalog generation the container was packed from:
// the primary re-reads the generation after packing and repacks if a
// reload landed mid-pack, so a stream never mixes two versions.

#ifndef ISLABEL_REPL_PRIMARY_H_
#define ISLABEL_REPL_PRIMARY_H_

#include <cstdint>
#include <string>

#include "catalog/catalog.h"
#include "obs/metrics.h"
#include "server/dispatcher.h"

namespace islabel {
namespace repl {

class PrimaryHooks : public server::ReplicationHooks {
 public:
  /// Counters register in the catalog's metric registry (a catalog
  /// always has one), so snapshot traffic shows up in the `metrics`
  /// verb.
  explicit PrimaryHooks(Catalog* catalog,
                        std::size_t chunk_bytes = 256 * 1024);

  std::string HandleVersion() override;
  std::string HandleHeartbeat() override;
  std::string HandleReplicate(const std::string& name,
                              std::uint64_t have_gen) override;

 private:
  Catalog* catalog_;
  std::size_t chunk_bytes_;
  obs::Counter* heartbeats_;
  obs::Counter* snapshots_sent_;
  obs::Counter* snapshot_bytes_sent_;
  obs::Counter* snapshot_chunks_sent_;
  obs::Counter* uptodate_replies_;
};

/// Formats "version: NAME:GEN ..." for `catalog` — shared by the primary
/// and by replicas (which answer `version` about their own catalog so
/// clients and peers can measure lag).
std::string FormatVersionLine(const Catalog& catalog);

}  // namespace repl
}  // namespace islabel

#endif  // ISLABEL_REPL_PRIMARY_H_
