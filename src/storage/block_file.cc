#include "storage/block_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace islabel {

Status BlockFile::Open(const std::string& path, bool truncate,
                       std::size_t block_size) {
  Close();
  const int flags = truncate ? O_RDWR | O_CREAT | O_TRUNC : O_RDONLY;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::IOError("open failed: " + path + ": " +
                           std::strerror(errno));
  }
  path_ = path;
  block_size_ = block_size;
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status::IOError("stat failed: " + path + ": " +
                           std::strerror(errno));
  }
  file_size_.store(static_cast<std::uint64_t>(st.st_size),
                   std::memory_order_relaxed);
  ResetStats();
  return Status::OK();
}

void BlockFile::ResetStats() {
  next_sequential_read_.store(UINT64_MAX, std::memory_order_relaxed);
  next_sequential_write_.store(UINT64_MAX, std::memory_order_relaxed);
  block_reads_.store(0, std::memory_order_relaxed);
  block_writes_.store(0, std::memory_order_relaxed);
  bytes_read_.store(0, std::memory_order_relaxed);
  bytes_written_.store(0, std::memory_order_relaxed);
  seeks_.store(0, std::memory_order_relaxed);
}

void BlockFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void BlockFile::Account(std::uint64_t offset, std::size_t n, bool is_write) {
  const std::uint64_t blocks =
      (offset % block_size_ + n + block_size_ - 1) / block_size_;
  std::atomic<std::uint64_t>& next_seq =
      is_write ? next_sequential_write_ : next_sequential_read_;
  // exchange (not load+store) so two interleaved readers cannot both
  // claim the same continuation offset; the classification stays
  // approximate under concurrency but the counter never loses updates.
  if (next_seq.exchange(offset + n, std::memory_order_relaxed) != offset) {
    seeks_.fetch_add(1, std::memory_order_relaxed);
  }
  if (is_write) {
    block_writes_.fetch_add(blocks, std::memory_order_relaxed);
    bytes_written_.fetch_add(n, std::memory_order_relaxed);
  } else {
    block_reads_.fetch_add(blocks, std::memory_order_relaxed);
    bytes_read_.fetch_add(n, std::memory_order_relaxed);
  }
}

Status BlockFile::PReadFull(std::uint64_t offset, void* dst, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r =
        ::pread(fd_, static_cast<char*>(dst) + done, n - done,
                static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed: " + path_ + ": " +
                             std::strerror(errno));
    }
    if (r == 0) return Status::IOError("short read: " + path_);
    done += static_cast<std::size_t>(r);
  }
  return Status::OK();
}

Status BlockFile::PWriteFull(std::uint64_t offset, const void* data,
                             std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w =
        ::pwrite(fd_, static_cast<const char*>(data) + done, n - done,
                 static_cast<off_t>(offset + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write failed: " + path_ + ": " +
                             std::strerror(errno));
    }
    done += static_cast<std::size_t>(w);
  }
  return Status::OK();
}

Status BlockFile::Append(const void* data, std::size_t n,
                         std::uint64_t* offset) {
  if (fd_ < 0) return Status::FailedPrecondition("file not open");
  MutexLock lock(&mu_);
  const std::uint64_t at = file_size_.load(std::memory_order_relaxed);
  ISLABEL_RETURN_IF_ERROR(PWriteFull(at, data, n));
  Account(at, n, /*is_write=*/true);
  file_size_.store(at + n, std::memory_order_relaxed);
  if (offset != nullptr) *offset = at;
  return Status::OK();
}

Status BlockFile::ReadAt(std::uint64_t offset, void* dst, std::size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("file not open");
  if (offset + n > file_size_.load(std::memory_order_relaxed)) {
    return Status::OutOfRange("read past EOF in " + path_);
  }
  ISLABEL_RETURN_IF_ERROR(PReadFull(offset, dst, n));
  Account(offset, n, /*is_write=*/false);
  return Status::OK();
}

Status ReadFile(const std::string& path, std::string* out) {
  BlockFile file;
  ISLABEL_RETURN_IF_ERROR(file.Open(path, /*truncate=*/false));
  out->resize(file.FileSize());
  return file.ReadAt(0, out->data(), out->size());
}

Status WriteFile(const std::string& path, std::string_view data) {
  BlockFile file;
  ISLABEL_RETURN_IF_ERROR(file.Open(path, /*truncate=*/true));
  return file.Append(data.data(), data.size(), nullptr);
}

}  // namespace islabel
