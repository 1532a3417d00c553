#include "storage/record_stream.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace islabel {

Status RecordWriter::WriteSlow(const void* data, std::size_t n) {
  ISLABEL_RETURN_IF_ERROR(Flush());
  // A write larger than the buffer goes straight to the file.
  if (n >= buf_.size()) return file_->Append(data, n, nullptr);
  return Write(data, n);
}

Status RecordWriter::Flush() {
  if (used_ == 0) return Status::OK();
  ISLABEL_RETURN_IF_ERROR(file_->Append(buf_.data(), used_, nullptr));
  used_ = 0;
  return Status::OK();
}

bool RecordReader::FillSlow(void* dst, std::size_t n, bool may_end) {
  if (!status_.ok()) return false;
  char* out = static_cast<char*>(dst);
  std::size_t copied = 0;
  while (copied < n) {
    if (buf_pos_ == buf_.size()) {
      if (file_pos_ == end_) {
        if (!may_end || copied != 0) {
          status_ = Status::IOError("record stream ends inside a record: " +
                                    file_->path());
        }
        return false;
      }
      buf_.resize(static_cast<std::size_t>(
          std::min<std::uint64_t>(end_ - file_pos_, kDefaultBlockSize)));
      status_ = file_->ReadAt(file_pos_, buf_.data(), buf_.size());
      if (!status_.ok()) {
        buf_.clear();
        buf_pos_ = 0;
        return false;
      }
      file_pos_ += buf_.size();
      buf_pos_ = 0;
    }
    const std::size_t take = std::min(n - copied, buf_.size() - buf_pos_);
    std::memcpy(out + copied, buf_.data() + buf_pos_, take);
    copied += take;
    buf_pos_ += take;
  }
  return true;
}

TempFiles::~TempFiles() {
  for (const std::string& path : paths_) std::remove(path.c_str());
}

std::string TempFiles::Fresh(const char* tag) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  paths_.push_back(dir_ + "/" + tag + "." + std::to_string(::getpid()) + "." +
                   std::to_string(id) + ".tmp");
  return paths_.back();
}

}  // namespace islabel
