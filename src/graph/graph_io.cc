#include "graph/graph_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "storage/block_file.h"
#include "storage/record_stream.h"
#include "util/varint.h"

namespace islabel {

namespace {

constexpr std::uint32_t kGraphMagic = 0x49534C47;  // "ISLG"
constexpr std::uint32_t kGraphVersion = 1;

/// True iff the fgets buffer holds a complete line (or the file ended);
/// false means the physical line was longer than the buffer.
bool LineComplete(const char* line, std::FILE* f) {
  return std::strchr(line, '\n') != nullptr || std::feof(f) != 0;
}

/// Consumes the rest of an over-long physical line (used for comments,
/// which may legally exceed the parse buffer).
void DrainLine(std::FILE* f) {
  int c;
  while ((c = std::fgetc(f)) != EOF && c != '\n') {
  }
}

// RAII stdio wrapper; keeps the I/O layer exception-free.
class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::FILE* get() const { return f_; }

 private:
  std::FILE* f_;
};

}  // namespace

Status WriteEdgeListText(const Graph& g, const std::string& path) {
  File f(path, "w");
  if (!f.ok()) {
    return Status::IOError("cannot open for write: " + path + ": " +
                           std::strerror(errno));
  }
  std::fprintf(f.get(), "# islabel edge list: %u vertices, %llu edges\n",
               g.NumVertices(),
               static_cast<unsigned long long>(g.NumEdges()));
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) {
        std::fprintf(f.get(), "%u %u %u\n", u, nbrs[i], ws[i]);
      }
    }
  }
  if (std::ferror(f.get())) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListText(const std::string& path) {
  File f(path, "r");
  if (!f.ok()) {
    return Status::IOError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  EdgeList edges;
  char line[256];
  std::uint64_t line_no = 0;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++line_no;
    // '\r' covers the blank line of a CR-LF file; data lines need no
    // stripping because sscanf stops at the first non-digit.
    if (line[0] == '#' || line[0] == '%' || line[0] == '\n' ||
        line[0] == '\r' || line[0] == '\0') {
      // Comments may exceed the buffer; swallow the tail so it is not
      // misparsed as a data line.
      if (!LineComplete(line, f.get())) DrainLine(f.get());
      continue;
    }
    if (!LineComplete(line, f.get())) {
      return Status::Corruption("line " + std::to_string(line_no) + " in " +
                                path + " exceeds " +
                                std::to_string(sizeof(line) - 1) + " bytes");
    }
    unsigned long long u, v, w = 1;
    int n = std::sscanf(line, "%llu %llu %llu", &u, &v, &w);
    if (n < 2) {
      return Status::Corruption("malformed line " + std::to_string(line_no) +
                                " in " + path);
    }
    if (u > kInvalidVertex - 1 || v > kInvalidVertex - 1) {
      return Status::OutOfRange("vertex id too large at line " +
                                std::to_string(line_no));
    }
    if (n == 2) w = 1;
    if (w == 0 || w > std::numeric_limits<Weight>::max()) {
      return Status::OutOfRange("weight out of range at line " +
                                std::to_string(line_no));
    }
    edges.Add(static_cast<VertexId>(u), static_cast<VertexId>(v),
              static_cast<Weight>(w));
  }
  if (std::ferror(f.get())) return Status::IOError("read failed: " + path);
  return edges;
}

Result<EdgeList> ReadDimacsGraph(const std::string& path) {
  File f(path, "r");
  if (!f.ok()) {
    return Status::IOError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  EdgeList edges;
  bool saw_header = false;
  unsigned long long n = 0, m = 0, arcs = 0;
  char line[256];
  std::uint64_t line_no = 0;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++line_no;
    const char head = line[0];
    if (head == 'c' || head == '\n' || head == '\r' || head == '\0') {
      // Comments may legally exceed the buffer (tool provenance lines);
      // swallow the tail so it is not misparsed as an arc.
      if (!LineComplete(line, f.get())) DrainLine(f.get());
      continue;
    }
    if (!LineComplete(line, f.get())) {
      return Status::Corruption("line " + std::to_string(line_no) + " in " +
                                path + " exceeds " +
                                std::to_string(sizeof(line) - 1) + " bytes");
    }
    if (head == 'p') {
      if (saw_header) {
        return Status::Corruption("duplicate 'p' header at line " +
                                  std::to_string(line_no) + " in " + path);
      }
      if (std::sscanf(line, "p sp %llu %llu", &n, &m) != 2) {
        return Status::Corruption("malformed 'p sp N M' header at line " +
                                  std::to_string(line_no) + " in " + path);
      }
      if (n > kInvalidVertex - 1) {
        return Status::OutOfRange("vertex count too large at line " +
                                  std::to_string(line_no) + " in " + path);
      }
      // N sizes the CSR arrays downstream; bound it by the file itself
      // (a real road network spells every vertex out in arc lines) so a
      // hostile header yields Corruption, not bad_alloc.
      long fsize = -1;
      const long pos = std::ftell(f.get());
      if (pos >= 0 && std::fseek(f.get(), 0, SEEK_END) == 0) {
        fsize = std::ftell(f.get());
        std::fseek(f.get(), pos, SEEK_SET);
      }
      if (fsize >= 0 && n > static_cast<unsigned long long>(fsize)) {
        return Status::Corruption("header vertex count " + std::to_string(n) +
                                  " exceeds the size of " + path);
      }
      saw_header = true;
      edges.EnsureVertices(static_cast<VertexId>(n));
      // M is untrusted until the trailing arcs == m check; cap the
      // reserve hint so a hostile header cannot force a throwing
      // over-allocation out of a Status-based parser.
      edges.Reserve(static_cast<std::size_t>(
          std::min<unsigned long long>(m, 1ull << 26)));
      continue;
    }
    if (head == 'a') {
      if (!saw_header) {
        return Status::Corruption("arc before 'p sp' header at line " +
                                  std::to_string(line_no) + " in " + path);
      }
      unsigned long long u = 0, v = 0, w = 0;
      if (std::sscanf(line, "a %llu %llu %llu", &u, &v, &w) != 3) {
        return Status::Corruption("malformed 'a U V W' arc at line " +
                                  std::to_string(line_no) + " in " + path);
      }
      // DIMACS ids are 1-based.
      if (u == 0 || v == 0 || u > n || v > n) {
        return Status::OutOfRange("arc endpoint out of [1, N] at line " +
                                  std::to_string(line_no) + " in " + path);
      }
      if (w == 0 || w > std::numeric_limits<Weight>::max()) {
        return Status::OutOfRange("arc weight out of range at line " +
                                  std::to_string(line_no) + " in " + path);
      }
      edges.Add(static_cast<VertexId>(u - 1), static_cast<VertexId>(v - 1),
                static_cast<Weight>(w));
      ++arcs;
      continue;
    }
    return Status::Corruption("unrecognized DIMACS line " +
                              std::to_string(line_no) + " in " + path);
  }
  if (std::ferror(f.get())) return Status::IOError("read failed: " + path);
  if (!saw_header) {
    return Status::Corruption("missing 'p sp N M' header in " + path);
  }
  if (arcs != m) {
    return Status::Corruption("header promises " + std::to_string(m) +
                              " arcs but " + path + " carries " +
                              std::to_string(arcs));
  }
  return edges;
}

Status WriteDimacsGraph(const Graph& g, const std::string& path) {
  File f(path, "w");
  if (!f.ok()) {
    return Status::IOError("cannot open for write: " + path + ": " +
                           std::strerror(errno));
  }
  std::fprintf(f.get(), "c islabel DIMACS export\n");
  std::fprintf(f.get(), "p sp %u %llu\n", g.NumVertices(),
               static_cast<unsigned long long>(2 * g.NumEdges()));
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    // Both orientations of every undirected edge, as road files do.
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      std::fprintf(f.get(), "a %u %u %u\n", u + 1, nbrs[i] + 1, ws[i]);
    }
  }
  if (std::ferror(f.get())) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status WriteGraphBinary(const Graph& g, const std::string& path) {
  BlockFile file;
  ISLABEL_RETURN_IF_ERROR(file.Open(path, /*truncate=*/true));
  RecordWriter out(&file);
  std::string bytes;
  PutFixed32(&bytes, kGraphMagic);
  PutFixed32(&bytes, kGraphVersion);
  PutFixed32(&bytes, g.NumVertices());
  PutFixed64(&bytes, g.NumEdges());
  PutFixed32(&bytes, g.has_vias() ? 1 : 0);
  ISLABEL_RETURN_IF_ERROR(out.Write(bytes.data(), bytes.size()));
  // Body: per-edge records (u, v, w [, via]) for u < v, varint-delta coded.
  VertexId prev_u = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u >= nbrs[i]) continue;
      bytes.clear();
      PutVarint64(&bytes, u - prev_u);
      PutVarint64(&bytes, nbrs[i]);
      PutVarint64(&bytes, ws[i]);
      if (g.has_vias()) {
        VertexId via = g.NeighborVias(u)[i];
        PutVarint64(&bytes, via == kInvalidVertex ? 0 : via + 1ULL);
      }
      prev_u = u;
      ISLABEL_RETURN_IF_ERROR(out.Write(bytes.data(), bytes.size()));
    }
  }
  return out.Flush();
}

Result<Graph> ReadGraphBinary(const std::string& path) {
  // Binary graphs are read once at startup; streaming adds nothing.
  std::string data;
  ISLABEL_RETURN_IF_ERROR(ReadFile(path, &data));
  Decoder dec(data);
  std::uint32_t magic, version, num_vertices, has_vias;
  std::uint64_t num_edges;
  if (!dec.GetFixed32(&magic) || magic != kGraphMagic) {
    return Status::Corruption("bad magic in " + path);
  }
  if (!dec.GetFixed32(&version) || version != kGraphVersion) {
    return Status::Corruption("unsupported version in " + path);
  }
  if (!dec.GetFixed32(&num_vertices) || !dec.GetFixed64(&num_edges) ||
      !dec.GetFixed32(&has_vias)) {
    return Status::Corruption("truncated header in " + path);
  }

  EdgeList edges(num_vertices);
  edges.Reserve(num_edges);
  VertexId prev_u = 0;
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    std::uint64_t du, v, w, via_plus1 = 0;
    if (!dec.GetVarint64(&du) || !dec.GetVarint64(&v) ||
        !dec.GetVarint64(&w)) {
      return Status::Corruption("truncated edge record in " + path);
    }
    if (has_vias && !dec.GetVarint64(&via_plus1)) {
      return Status::Corruption("truncated via record in " + path);
    }
    VertexId u = prev_u + static_cast<VertexId>(du);
    prev_u = u;
    if (v >= num_vertices || u >= num_vertices || w == 0 ||
        w > std::numeric_limits<Weight>::max()) {
      return Status::Corruption("edge out of range in " + path);
    }
    edges.Add(u, static_cast<VertexId>(v), static_cast<Weight>(w),
              via_plus1 == 0 ? kInvalidVertex
                             : static_cast<VertexId>(via_plus1 - 1));
  }
  return Graph::FromEdgeList(std::move(edges), has_vias != 0);
}

}  // namespace islabel
