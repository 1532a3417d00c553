// BlockFile: a page-granular file abstraction with logical I/O accounting.
//
// The paper's algorithms are analyzed in the external-memory model
// (scan/sort, block size B); every disk touch in this library goes through
// BlockFile so the harness can report block reads/writes and modeled HDD
// time next to measured wall time (util/io_stats.h). Reads and writes at
// an offset adjacent to the previous access count as sequential; others
// count a seek.
//
// Reads use positioned I/O (pread) against a plain file descriptor, so
// concurrent ReadAt calls from different threads never share a file
// position — this is what lets the disk-resident query mode (DB-ISL)
// serve many QueryEngines over one open LabelStore, with no lock anywhere
// on the read path (the I/O counters are relaxed atomics). Writes are
// serialized internally. stats() is a consistent snapshot at quiescence;
// under concurrency the totals stay exact but the sequential-vs-seek
// split is approximate (interleaved readers legitimately break each
// other's sequentiality).
//
// A file opened without `truncate` is opened read-only and never created:
// loading an index needs no write access and leaves a directory as it
// found it. Whole small files (index metadata, snapshot members) go
// through ReadFile / WriteFile; streams of records through
// storage/record_stream.h.

#ifndef ISLABEL_STORAGE_BLOCK_FILE_H_
#define ISLABEL_STORAGE_BLOCK_FILE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/io_stats.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace islabel {

/// Default logical block size (B in the I/O model): 64 KB.
inline constexpr std::size_t kDefaultBlockSize = 64 * 1024;

/// Random-access file with block-level accounting. Open/Close and Append
/// must not race with other calls; ReadAt is safe to call concurrently
/// from any number of threads once the file is open.
class BlockFile {
 public:
  BlockFile() = default;
  ~BlockFile() { Close(); }

  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  /// With `truncate`, creates or truncates `path` for reading and
  /// appending; otherwise opens an existing file read-only.
  Status Open(const std::string& path, bool truncate,
              std::size_t block_size = kDefaultBlockSize);
  void Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  std::size_t block_size() const { return block_size_; }

  /// Appends `n` bytes at the end; returns the offset written at via *offset
  /// (may be null).
  Status Append(const void* data, std::size_t n, std::uint64_t* offset);

  /// Reads exactly `n` bytes at `offset`. Thread-safe (one pread per call;
  /// no shared file position).
  Status ReadAt(std::uint64_t offset, void* dst, std::size_t n);

  std::uint64_t FileSize() const {
    return file_size_.load(std::memory_order_relaxed);
  }

  /// Materializes the atomic counters into an IoStats snapshot. Meant for
  /// quiescent points (after a build phase, between query sweeps); safe to
  /// call any time, but mid-traffic snapshots are a moving target.
  const IoStats& stats() const {
    MutexLock lock(&mu_);
    stats_snapshot_.block_reads = block_reads_.load(std::memory_order_relaxed);
    stats_snapshot_.block_writes =
        block_writes_.load(std::memory_order_relaxed);
    stats_snapshot_.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    stats_snapshot_.bytes_written =
        bytes_written_.load(std::memory_order_relaxed);
    stats_snapshot_.seeks = seeks_.load(std::memory_order_relaxed);
    return stats_snapshot_;
  }
  void ResetStats();

 private:
  /// Lock-free accounting (relaxed atomics; totals exact, the
  /// sequential/seek classification approximate under concurrent reads).
  void Account(std::uint64_t offset, std::size_t n, bool is_write);
  Status PReadFull(std::uint64_t offset, void* dst, std::size_t n);
  Status PWriteFull(std::uint64_t offset, const void* data, std::size_t n);

  int fd_ = -1;
  std::string path_;
  std::size_t block_size_ = kDefaultBlockSize;
  std::atomic<std::uint64_t> file_size_{0};
  /// Serializes writers (Append needs a stable end-of-file) and the
  /// stats() snapshot; the read path never takes it.
  mutable Mutex mu_;
  std::atomic<std::uint64_t> next_sequential_read_{UINT64_MAX};
  std::atomic<std::uint64_t> next_sequential_write_{UINT64_MAX};
  std::atomic<std::uint64_t> block_reads_{0};
  std::atomic<std::uint64_t> block_writes_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> seeks_{0};
  mutable IoStats stats_snapshot_ GUARDED_BY(mu_);
};

/// Reads the whole file at `path`, opened read-only, into *out.
Status ReadFile(const std::string& path, std::string* out);

/// Creates or truncates `path` and writes `data` as its whole content.
Status WriteFile(const std::string& path, std::string_view data);

}  // namespace islabel

#endif  // ISLABEL_STORAGE_BLOCK_FILE_H_
