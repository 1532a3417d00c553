// Sequential record streams over a BlockFile, and the temp files they
// spill to.
//
// The §6 construction runs Algorithms 2-4 as scan and sort passes over
// disk files: the level graphs G_i and their degree-sorted copies G'_i
// (core/hierarchy_external.cc), ExternalSorter's spill runs, and the
// labeling join's file BU of finished upper-level labels
// (core/labeling_external.cc). Save streams labels.isl and core.islg out
// the same way. They are written through RecordWriter (a sort run is one
// sorted buffer, appended whole) and read through RecordReader, and the
// temporary ones are named and removed by TempFiles.
//
// Both streams move kDefaultBlockSize bytes (B of the I/O model) per file
// access. Records are trivially copyable and stored as their raw bytes.
// A failed or short read is an error, never the end of the input.

#ifndef ISLABEL_STORAGE_RECORD_STREAM_H_
#define ISLABEL_STORAGE_RECORD_STREAM_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/block_file.h"
#include "util/status.h"

namespace islabel {

/// Buffered appender: bytes reach the file in kDefaultBlockSize blocks,
/// and on Flush().
class RecordWriter {
 public:
  explicit RecordWriter(BlockFile* file)
      : file_(file), buf_(kDefaultBlockSize) {}

  template <typename T>
  Status Add(const T& record) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Write(&record, sizeof(T));
  }

  /// Appends `n` raw bytes.
  Status Write(const void* data, std::size_t n) {
    if (n > buf_.size() - used_) return WriteSlow(data, n);
    std::memcpy(buf_.data() + used_, data, n);
    used_ += n;
    return Status::OK();
  }

  /// Appends the buffered bytes to the file; the writer stays usable.
  Status Flush();

 private:
  Status WriteSlow(const void* data, std::size_t n);

  BlockFile* file_;
  std::vector<char> buf_;
  std::size_t used_ = 0;
};

/// Buffered scanner over the bytes `file` held when the reader was made;
/// records appended later are not part of the scan.
class RecordReader {
 public:
  explicit RecordReader(BlockFile* file)
      : file_(file), end_(file->FileSize()) {}

  /// Reads the next record. False at the end of the file, or on a failed
  /// read or a record the file ends inside — status() tells which.
  template <typename T>
  bool Next(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Fill(out, sizeof(T), /*may_end=*/true);
  }

  /// Reads `count` records that must follow (the payload of a record whose
  /// head Next() read): running out of file here is an error too.
  template <typename T>
  Status Read(T* out, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count != 0) Fill(out, count * sizeof(T), /*may_end=*/false);
    return status_;
  }

  const Status& status() const { return status_; }

 private:
  bool Fill(void* dst, std::size_t n, bool may_end) {
    if (n > buf_.size() - buf_pos_) return FillSlow(dst, n, may_end);
    std::memcpy(dst, buf_.data() + buf_pos_, n);
    buf_pos_ += n;
    return true;
  }
  bool FillSlow(void* dst, std::size_t n, bool may_end);

  BlockFile* file_;
  std::uint64_t end_;
  std::uint64_t file_pos_ = 0;
  std::vector<char> buf_;
  std::size_t buf_pos_ = 0;
  Status status_;
};

/// Names the temp files of one external computation and removes every
/// one of them when it goes out of scope, on error returns too.
class TempFiles {
 public:
  explicit TempFiles(std::string dir) : dir_(std::move(dir)) {}
  ~TempFiles();

  TempFiles(const TempFiles&) = delete;
  TempFiles& operator=(const TempFiles&) = delete;

  /// A path under the directory no other TempFiles of this process hands
  /// out; `tag` names the file's role.
  std::string Fresh(const char* tag);

 private:
  std::string dir_;
  std::vector<std::string> paths_;
};

}  // namespace islabel

#endif  // ISLABEL_STORAGE_RECORD_STREAM_H_
