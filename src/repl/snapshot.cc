#include "repl/snapshot.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "storage/block_file.h"
#include "util/varint.h"

namespace islabel {
namespace repl {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x49534E50;  // "PNSI" on disk
constexpr std::uint32_t kSnapshotVersion = 1;
/// A container smaller than the fixed header + trailing CRC is garbage.
constexpr std::size_t kMinContainerBytes = 4 + 4 + 4 + 8 + 4;

/// Lazily built CRC-32 lookup table (IEEE reflected polynomial).
const std::uint32_t* CrcTable() {
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// True iff `path` is a safe relative path: non-empty, no leading '/',
/// no empty or "." / ".." components, no backslashes or NULs.
bool IsSafeRelativePath(std::string_view path) {
  if (path.empty() || path.size() > 4096) return false;
  if (path.front() == '/') return false;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t end = std::min(path.find('/', begin), path.size());
    const std::string_view part = path.substr(begin, end - begin);
    if (part.empty() || part == "." || part == "..") return false;
    for (char c : part) {
      if (c == '\0' || c == '\\') return false;
    }
    if (end == path.size()) break;
    begin = end + 1;
  }
  return true;
}

/// One parsed file entry during validation; `data` points into the blob.
struct FileEntry {
  std::string path;
  std::string_view data;
};

/// Shared strict walk used by Validate and Install. On success `entries`
/// (nullable) holds a view per file.
Status ParseSnapshot(std::string_view blob, SnapshotInfo* info,
                     std::vector<FileEntry>* entries) {
  if (blob.size() < kMinContainerBytes) {
    return Status::Corruption("snapshot container truncated (" +
                              std::to_string(blob.size()) + " bytes)");
  }
  // The container checksum covers everything before its own 4 bytes.
  const std::string_view body = blob.substr(0, blob.size() - 4);
  Decoder tail(blob.data() + blob.size() - 4, 4);
  std::uint32_t stored_crc = 0;
  tail.GetFixed32(&stored_crc);
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("snapshot container checksum mismatch");
  }

  Decoder dec(body.data(), body.size());
  std::uint32_t magic = 0, version = 0, file_count = 0;
  std::uint64_t payload_bytes = 0;
  if (!dec.GetFixed32(&magic) || magic != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic");
  }
  if (!dec.GetFixed32(&version) || version != kSnapshotVersion) {
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(version));
  }
  if (!dec.GetFixed32(&file_count) || !dec.GetFixed64(&payload_bytes)) {
    return Status::Corruption("truncated snapshot header");
  }
  // Plausibility before any allocation: every file needs at least its
  // 13-byte fixed overhead, and the payload cannot exceed the blob.
  if (file_count > body.size() / 13 || payload_bytes > body.size()) {
    return Status::Corruption("implausible snapshot header (" +
                              std::to_string(file_count) + " files, " +
                              std::to_string(payload_bytes) + " bytes)");
  }

  std::uint64_t seen_payload = 0;
  if (info != nullptr) {
    info->paths.clear();
    info->paths.reserve(file_count);
  }
  for (std::uint32_t i = 0; i < file_count; ++i) {
    std::uint64_t path_len = 0;
    if (!dec.GetVarint64(&path_len) || path_len > dec.Remaining()) {
      return Status::Corruption("truncated snapshot entry " +
                                std::to_string(i));
    }
    std::string path(static_cast<std::size_t>(path_len), '\0');
    if (path_len > 0 && !dec.GetBytes(path.data(), path.size())) {
      return Status::Corruption("truncated snapshot entry " +
                                std::to_string(i));
    }
    if (!IsSafeRelativePath(path)) {
      return Status::Corruption("unsafe path in snapshot: '" + path + "'");
    }
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    if (!dec.GetFixed64(&size) || !dec.GetFixed32(&crc) ||
        size > dec.Remaining()) {
      return Status::Corruption("truncated snapshot file " + path);
    }
    const std::string_view data(dec.Position(),
                                static_cast<std::size_t>(size));
    // Step over the payload without copying it.
    dec = Decoder(dec.Position() + size,
                  dec.Remaining() - static_cast<std::size_t>(size));
    if (Crc32(data) != crc) {
      return Status::Corruption("checksum mismatch for snapshot file " +
                                path);
    }
    seen_payload += size;
    if (info != nullptr) info->paths.push_back(path);
    if (entries != nullptr) entries->push_back(FileEntry{std::move(path), data});
  }
  if (!dec.Done()) {
    return Status::Corruption("trailing garbage in snapshot container");
  }
  if (seen_payload != payload_bytes) {
    return Status::Corruption("snapshot payload size mismatch");
  }
  if (info != nullptr) {
    info->file_count = file_count;
    info->payload_bytes = payload_bytes;
  }
  return Status::OK();
}

}  // namespace

std::uint32_t Crc32Extend(std::uint32_t crc, std::string_view data) {
  const std::uint32_t* table = CrcTable();
  crc ^= 0xFFFFFFFFu;
  for (unsigned char c : data) {
    crc = table[(crc ^ c) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32(std::string_view data) { return Crc32Extend(0, data); }

Status BuildSnapshot(const std::string& dir, std::string* out) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::IOError("snapshot source is not a directory: " + dir);
  }
  std::vector<std::string> paths;
  for (fs::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      paths.push_back(fs::relative(it->path(), dir, ec).generic_string());
    }
  }
  if (ec) {
    return Status::IOError("cannot walk " + dir + ": " + ec.message());
  }
  std::sort(paths.begin(), paths.end());

  out->clear();
  PutFixed32(out, kSnapshotMagic);
  PutFixed32(out, kSnapshotVersion);
  PutFixed32(out, static_cast<std::uint32_t>(paths.size()));
  const std::size_t payload_at = out->size();
  PutFixed64(out, 0);  // payload_bytes, patched below

  std::uint64_t payload_bytes = 0;
  std::string contents;
  for (const std::string& rel : paths) {
    if (!IsSafeRelativePath(rel)) {
      return Status::IOError("refusing to pack unsafe path '" + rel + "'");
    }
    ISLABEL_RETURN_IF_ERROR(ReadFile(dir + "/" + rel, &contents));
    PutVarint64(out, rel.size());
    out->append(rel);
    PutFixed64(out, contents.size());
    PutFixed32(out, Crc32(contents));
    out->append(contents);
    payload_bytes += contents.size();
  }
  std::string patched;
  PutFixed64(&patched, payload_bytes);
  out->replace(payload_at, patched.size(), patched);
  PutFixed32(out, Crc32(*out));
  return Status::OK();
}

Status ValidateSnapshot(std::string_view blob, SnapshotInfo* info) {
  return ParseSnapshot(blob, info, nullptr);
}

Status InstallSnapshot(std::string_view blob, const std::string& dest_dir) {
  std::vector<FileEntry> entries;
  ISLABEL_RETURN_IF_ERROR(ParseSnapshot(blob, nullptr, &entries));

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dest_dir, ec);
  if (ec) {
    return Status::IOError("cannot create " + dest_dir + ": " +
                           ec.message());
  }
  for (const FileEntry& entry : entries) {
    const std::string path = dest_dir + "/" + entry.path;
    const fs::path parent = fs::path(path).parent_path();
    fs::create_directories(parent, ec);
    if (ec) {
      return Status::IOError("cannot create " + parent.string() + ": " +
                             ec.message());
    }
    ISLABEL_RETURN_IF_ERROR(WriteFile(path, entry.data));
  }
  return Status::OK();
}

}  // namespace repl
}  // namespace islabel
