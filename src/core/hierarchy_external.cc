// I/O-efficient hierarchy construction (§6.1, Algorithms 2 and 3).
//
// Level graphs live on disk as arrays of directed edge records sorted by
// (src, dst) — the on-disk adjacency-list representation. Each level then
// costs:
//   * Algorithm 2: one scan to attach degrees, one external sort by
//     (degree, src), one scan to greedily select the independent set. The
//     L' exclusion buffer holds memory_budget_bytes / sizeof(VertexId)
//     vertices; when it fills, the remaining file is rewritten to evict
//     excluded vertices (the paper's lines 10-11) and the buffer cleared.
//   * Algorithm 3: one filtering scan (drop removed vertices), the EA
//     self-join spilled through an external sort by (src, dst, weight),
//     and one merge scan applying the min-weight rule.
//
// The result is bit-identical to the in-memory pipeline (tests assert
// this); every disk touch is counted in VertexHierarchy::io so benches can
// report modeled HDD cost. Files are written and scanned through
// storage/record_stream.h; one TempFiles removes them on every exit.

#include <algorithm>
#include <limits>
#include <utility>

#include "core/hierarchy.h"
#include "core/options.h"
#include "storage/block_file.h"
#include "storage/external_sorter.h"
#include "storage/record_stream.h"
#include "util/bit_vector.h"

namespace islabel {

namespace {

// One directed copy of an edge of the current level graph; 16 bytes,
// trivially copyable for ExternalSorter and the record streams.
struct DiskEdge {
  VertexId src;
  VertexId dst;
  Weight w;
  VertexId via;
};
static_assert(sizeof(DiskEdge) == 16);

// DiskEdge prefixed by the degree of its source — the sort key of
// Algorithm 2's "ascending order of degree".
struct DegEdge {
  std::uint32_t deg;
  DiskEdge e;
};

struct DegLess {
  bool operator()(const DegEdge& a, const DegEdge& b) const {
    if (a.deg != b.deg) return a.deg < b.deg;
    if (a.e.src != b.e.src) return a.e.src < b.e.src;
    return a.e.dst < b.e.dst;
  }
};

struct SrcDstLess {
  bool operator()(const DiskEdge& a, const DiskEdge& b) const {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.w != b.w) return a.w < b.w;
    // Same tie-break as the in-memory EA sort: results are bit-identical.
    return a.via < b.via;
  }
};

}  // namespace

Result<VertexHierarchy> BuildHierarchyExternal(const Graph& g,
                                               const IndexOptions& options) {
  if (options.is_order != IsOrder::kMinDegree) {
    return Status::NotSupported(
        "the external pipeline implements the paper's min-degree order only");
  }
  const VertexId n = g.NumVertices();
  VertexHierarchy h;
  h.level.assign(n, 0);
  h.removed_adj.resize(n);
  h.levels.push_back({});

  TempFiles temps(options.tmp_dir);
  IoStats io;

  // Spool G_1 to disk as sorted directed records.
  auto level_file = std::make_unique<BlockFile>();
  ISLABEL_RETURN_IF_ERROR(
      level_file->Open(temps.Fresh("level"), /*truncate=*/true));
  {
    RecordWriter w(level_file.get());
    for (VertexId v = 0; v < n; ++v) {
      auto nbrs = g.Neighbors(v);
      auto ws = g.NeighborWeights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        ISLABEL_RETURN_IF_ERROR(w.Add(DiskEdge{
            v, nbrs[i], ws[i],
            g.has_vias() ? g.NeighborVias(v)[i] : kInvalidVertex}));
      }
    }
    ISLABEL_RETURN_IF_ERROR(w.Flush());
  }

  // Algorithm 2's L' holds what the memory budget holds.
  const std::uint64_t lprime_capacity = std::max<std::uint64_t>(
      1, options.memory_budget_bytes / sizeof(VertexId));
  BitVector alive(n, true);
  std::uint64_t num_alive = n;
  std::uint64_t num_edge_records = level_file->FileSize() / sizeof(DiskEdge);
  std::uint64_t prev_size = num_alive + num_edge_records / 2;

  std::uint32_t i = 1;
  while (true) {
    const std::uint64_t cur_size = num_alive + num_edge_records / 2;
    LevelStats ls;
    ls.num_vertices = num_alive;
    ls.num_edges = num_edge_records / 2;

    if (options.StopsAtLevel(i, cur_size, prev_size, num_alive)) {
      h.k = i;
      h.stats.push_back(ls);
      break;
    }

    // ---- Algorithm 2: independent set, external ----
    // Pass 1: attach degrees (run lengths) and external-sort by (deg, src).
    ExternalSorter<DegEdge, DegLess> deg_sorter(
        options.tmp_dir, options.memory_budget_bytes, DegLess{});
    {
      RecordReader reader(level_file.get());
      std::vector<DiskEdge> run;
      DiskEdge e;
      bool more = reader.Next(&e);
      while (more) {
        run.clear();
        run.push_back(e);
        while ((more = reader.Next(&e)) && e.src == run.front().src) {
          run.push_back(e);
        }
        const std::uint32_t deg = static_cast<std::uint32_t>(run.size());
        for (const DiskEdge& r : run) {
          ISLABEL_RETURN_IF_ERROR(deg_sorter.Add(DegEdge{deg, r}));
        }
      }
      ISLABEL_RETURN_IF_ERROR(reader.status());
    }
    ISLABEL_RETURN_IF_ERROR(deg_sorter.Finish());

    // Materialize G'_i (the degree-sorted copy) so the L'-overflow rewrite
    // of lines 10-11 has a file to compact.
    auto gprime = std::make_unique<BlockFile>();
    ISLABEL_RETURN_IF_ERROR(
        gprime->Open(temps.Fresh("gprime"), /*truncate=*/true));
    {
      RecordWriter w(gprime.get());
      DegEdge de;
      while (deg_sorter.Next(&de)) ISLABEL_RETURN_IF_ERROR(w.Add(de));
      ISLABEL_RETURN_IF_ERROR(deg_sorter.status());
      ISLABEL_RETURN_IF_ERROR(w.Flush());
    }
    io += deg_sorter.stats();

    // Pass 2: greedy selection. Isolated alive vertices have no records and
    // are all independent; select them first (they precede every run in
    // (deg, src) order since their degree is 0).
    std::vector<VertexId> li;
    BitVector in_lprime(n);
    std::uint64_t lprime_count = 0;
    {
      BitVector has_edges(n);
      {
        RecordReader reader(level_file.get());
        DiskEdge e;
        while (reader.Next(&e)) has_edges.Set(e.src);
        ISLABEL_RETURN_IF_ERROR(reader.status());
      }
      for (VertexId v = 0; v < n; ++v) {
        if (alive[v] && !has_edges[v]) li.push_back(v);
      }
    }
    while (true) {
      RecordReader reader(gprime.get());
      DegEdge de;
      bool more = reader.Next(&de);
      bool overflowed = false;
      std::vector<DiskEdge> run;
      while (more && !overflowed) {
        run.clear();
        run.push_back(de.e);
        while ((more = reader.Next(&de)) && de.e.src == run.front().src) {
          run.push_back(de.e);
        }
        const VertexId u = run.front().src;
        if (in_lprime[u]) continue;
        li.push_back(u);
        auto& adj = h.removed_adj[u];
        adj.clear();
        adj.reserve(run.size());
        for (const DiskEdge& r : run) adj.emplace_back(r.dst, r.w, r.via);
        for (const DiskEdge& r : run) {
          if (!in_lprime[r.dst]) {
            in_lprime.Set(r.dst);
            ++lprime_count;
          }
        }
        if (lprime_count > lprime_capacity && more) {
          // Lines 10-11: rewrite the unscanned remainder of G'_i without
          // the excluded vertices, then clear L'. The record under the
          // cursor (`de`) begins the remainder.
          auto rest = std::make_unique<BlockFile>();
          ISLABEL_RETURN_IF_ERROR(
              rest->Open(temps.Fresh("gprime"), /*truncate=*/true));
          RecordWriter w(rest.get());
          do {
            if (!in_lprime[de.e.src]) ISLABEL_RETURN_IF_ERROR(w.Add(de));
          } while (reader.Next(&de));
          ISLABEL_RETURN_IF_ERROR(reader.status());
          ISLABEL_RETURN_IF_ERROR(w.Flush());
          io += gprime->stats();
          gprime = std::move(rest);
          in_lprime.Reset();
          lprime_count = 0;
          overflowed = true;  // restart the scan on the rewritten file
        }
      }
      ISLABEL_RETURN_IF_ERROR(reader.status());
      if (!overflowed) break;
    }
    std::sort(li.begin(), li.end());
    io += gprime->stats();
    gprime.reset();

    ls.is_size = li.size();
    for (VertexId v : li) {
      h.level[v] = i;
      alive.Clear(v);
    }
    num_alive -= li.size();

    // ---- Algorithm 3: build G_{i+1}, external ----
    BitVector in_li(n);
    for (VertexId v : li) in_li.Set(v);

    // EA self-join, spilled through an external sort by (src, dst, w).
    ExternalSorter<DiskEdge, SrcDstLess> ea_sorter(
        options.tmp_dir, options.memory_budget_bytes, SrcDstLess{});
    for (VertexId v : li) {
      const auto& adj = h.removed_adj[v];
      for (std::size_t a = 0; a < adj.size(); ++a) {
        for (std::size_t b = a + 1; b < adj.size(); ++b) {
          const std::uint64_t wide =
              static_cast<std::uint64_t>(adj[a].w) + adj[b].w;
          if (wide > std::numeric_limits<Weight>::max()) {
            return Status::OutOfRange(
                "augmenting edge weight overflows the Weight type");
          }
          const Weight w = static_cast<Weight>(wide);
          ISLABEL_RETURN_IF_ERROR(
              ea_sorter.Add(DiskEdge{adj[a].to, adj[b].to, w, v}));
          ISLABEL_RETURN_IF_ERROR(
              ea_sorter.Add(DiskEdge{adj[b].to, adj[a].to, w, v}));
        }
      }
    }
    ISLABEL_RETURN_IF_ERROR(ea_sorter.Finish());

    // Merge scan: induced subgraph records (level file minus L_i) with the
    // EA stream, min-weight on duplicates.
    auto next_file = std::make_unique<BlockFile>();
    ISLABEL_RETURN_IF_ERROR(
        next_file->Open(temps.Fresh("level"), /*truncate=*/true));
    {
      RecordReader gr(level_file.get());
      RecordWriter w(next_file.get());
      DiskEdge ge{}, ee{};
      bool have_g = false, have_e = false;
      // Pull the next surviving induced record.
      auto pull_g = [&]() {
        DiskEdge x;
        while (gr.Next(&x)) {
          if (!in_li[x.src] && !in_li[x.dst]) {
            ge = x;
            have_g = true;
            return;
          }
        }
        have_g = false;
      };
      // Pull the next deduplicated EA record (min weight per (src, dst)).
      auto pull_e = [&]() {
        DiskEdge x;
        while (ea_sorter.Next(&x)) {
          if (have_e && x.src == ee.src && x.dst == ee.dst) continue;
          ee = x;
          have_e = true;
          return;
        }
        have_e = false;
      };
      auto order = [](const DiskEdge& a, const DiskEdge& b) {
        if (a.src != b.src) return a.src < b.src ? -1 : 1;
        if (a.dst != b.dst) return a.dst < b.dst ? -1 : 1;
        return 0;
      };
      pull_g();
      // Seed EA cursor: have_e must start false for dedup logic, so pull
      // the raw first record.
      {
        DiskEdge x;
        if (ea_sorter.Next(&x)) {
          ee = x;
          have_e = true;
        }
      }
      while (have_g || have_e) {
        if (!have_e || (have_g && order(ge, ee) < 0)) {
          ISLABEL_RETURN_IF_ERROR(w.Add(ge));
          pull_g();
        } else if (!have_g || order(ge, ee) > 0) {
          ISLABEL_RETURN_IF_ERROR(w.Add(ee));
          pull_e();
        } else {
          ISLABEL_RETURN_IF_ERROR(w.Add(ee.w < ge.w ? ee : ge));
          pull_g();
          pull_e();
        }
      }
      ISLABEL_RETURN_IF_ERROR(gr.status());
      ISLABEL_RETURN_IF_ERROR(ea_sorter.status());
      ISLABEL_RETURN_IF_ERROR(w.Flush());
    }
    io += ea_sorter.stats();
    io += level_file->stats();
    level_file = std::move(next_file);
    num_edge_records = level_file->FileSize() / sizeof(DiskEdge);

    h.levels.push_back(std::move(li));
    h.stats.push_back(ls);
    prev_size = cur_size;
    ++i;
  }

  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) h.level[v] = h.k;
  }

  // Load the terminal level file as G_k.
  {
    EdgeList edges(n);
    RecordReader reader(level_file.get());
    DiskEdge e;
    while (reader.Next(&e)) {
      if (e.src < e.dst) {
        edges.Add(e.src, e.dst, e.w,
                  options.keep_vias ? e.via : kInvalidVertex);
      }
    }
    ISLABEL_RETURN_IF_ERROR(reader.status());
    h.SetCore(Graph::FromEdgeList(std::move(edges), options.keep_vias));
  }
  io += level_file->stats();
  h.io = io;
  return h;
}

}  // namespace islabel
