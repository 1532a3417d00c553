#include "core/labeling.h"

#include <algorithm>
#include <queue>

#include "util/parallel.h"

namespace islabel {

std::size_t SortAndDedupeRange(LabelEntry* entries, std::size_t count) {
  std::sort(entries, entries + count,
            [](const LabelEntry& a, const LabelEntry& b) {
              if (a.node != b.node) return a.node < b.node;
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.via < b.via;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (out > 0 && entries[out - 1].node == entries[i].node) continue;
    entries[out++] = entries[i];
  }
  return out;
}

LabelArena ComputeLabelsTopDown(const VertexHierarchy& h, LabelingStats* stats,
                                std::uint32_t num_threads) {
  const VertexId n = h.NumVertices();

  // The slab under construction, in level-completion order (core first,
  // then L_{k-1}, ..., L_1); start/len locate each finished label so lower
  // levels can read it. The final arena permutes this into vertex-id CSR.
  std::vector<LabelEntry> slab;
  std::vector<std::uint64_t> start(n, 0);
  std::vector<std::uint32_t> len(n, 0);

  // Initialization (Algorithm 4 lines 1-4): residual vertices are their own
  // single ancestor.
  for (VertexId v = 0; v < n; ++v) {
    if (h.level[v] == h.k) {
      start[v] = slab.size();
      len[v] = 1;
      slab.emplace_back(v, 0);
    }
  }

  // Top-down propagation, level k-1 down to 1. When v ∈ L_i is processed,
  // every DAG neighbor u of v has ℓ(u) > i, so label(u) is already complete
  // (Corollary 1): label(v) = {(v,0)} ∪ min-merge over u of
  // (w, ω(v,u) + d(u,w)). Within a level the vertices are independent —
  // they only read finished upper-level labels — so each level runs as a
  // deterministic two-pass parallel step.
  std::vector<LabelEntry> cand;        // per-level candidate regions
  std::vector<std::uint64_t> coff;     // candidate region offsets
  std::vector<std::uint64_t> foff;     // finished-label offsets in the slab
  std::vector<std::uint32_t> flen;     // finished label lengths
  for (std::uint32_t i = h.k; i-- > 1;) {
    const std::vector<VertexId>& level = h.levels[i];
    const std::size_t m = level.size();
    if (m == 0) continue;

    // Pass 1 (serial, O(level adjacency)): size each vertex's candidate
    // region — self entry + one candidate per upper-label entry — and
    // prefix-sum the regions.
    coff.assign(m + 1, 0);
    for (std::size_t j = 0; j < m; ++j) {
      std::uint64_t c = 1;
      for (const HierEdge& e : h.removed_adj[level[j]]) c += len[e.to];
      coff[j + 1] = coff[j] + c;
    }
    if (cand.size() < coff[m]) cand.resize(coff[m]);

    // Pass 2 (parallel): generate candidates into the private region, then
    // collapse to the final label in place.
    flen.assign(m, 0);
    const LabelEntry* upper = slab.data();
    ParallelFor(m, num_threads, [&](std::size_t j) {
      const VertexId v = level[j];
      LabelEntry* out = cand.data() + coff[j];
      std::size_t c = 0;
      out[c++] = LabelEntry(v, 0);
      for (const HierEdge& e : h.removed_adj[v]) {
        const LabelEntry* up = upper + start[e.to];
        const std::uint32_t up_len = len[e.to];
        for (std::uint32_t t = 0; t < up_len; ++t) {
          // Intermediate vertex for path reconstruction (§8.1): the direct
          // entry inherits the augmenting edge's via; transitive entries
          // record the neighbor u as the split point.
          const VertexId via = (up[t].node == e.to) ? e.via : e.to;
          out[c++] = LabelEntry(up[t].node,
                                static_cast<Distance>(e.w) + up[t].dist, via);
        }
      }
      flen[j] = static_cast<std::uint32_t>(SortAndDedupeRange(out, c));
    }, /*min_items_per_worker=*/32);

    // Pass 3: prefix-sum the finished lengths, grow the slab once, and
    // copy the compacted labels in parallel.
    foff.assign(m + 1, slab.size());
    for (std::size_t j = 0; j < m; ++j) foff[j + 1] = foff[j] + flen[j];
    slab.resize(foff[m]);
    LabelEntry* slab_out = slab.data();
    ParallelFor(m, num_threads, [&](std::size_t j) {
      const VertexId v = level[j];
      std::copy_n(cand.data() + coff[j], flen[j], slab_out + foff[j]);
      start[v] = foff[j];
      len[v] = flen[j];
    }, /*min_items_per_worker=*/512);
  }

  if (stats != nullptr) {
    *stats = LabelingStats{};
    for (VertexId v = 0; v < n; ++v) {
      stats->total_entries += len[v];
      stats->max_entries = std::max<std::uint64_t>(stats->max_entries, len[v]);
    }
    stats->bytes_in_memory = stats->total_entries * sizeof(LabelEntry);
  }

  // Final assembly: permute the level-ordered slab into the vertex-id CSR
  // the arena serves. The candidate buffers are released first; the slab
  // itself is transiently duplicated here (~2x label bytes peak) — builds
  // that cannot afford that belong on the memory-budgeted external
  // pipeline (DESIGN.md §6). Move-assigning empty vectors frees the
  // candidate storage; `= {}` would keep its capacity.
  cand = std::vector<LabelEntry>();
  coff = std::vector<std::uint64_t>();
  foff = std::vector<std::uint64_t>();
  flen = std::vector<std::uint32_t>();
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + len[v];
  std::vector<LabelEntry> ordered(static_cast<std::size_t>(offsets[n]));
  LabelEntry* ordered_out = ordered.data();
  const LabelEntry* slab_in = slab.data();
  ParallelFor(n, num_threads, [&](std::size_t v) {
    std::copy_n(slab_in + start[v], len[v], ordered_out + offsets[v]);
  }, /*min_items_per_worker=*/4096);

  LabelArena arena(std::move(ordered), std::move(offsets));
  arena.ComputeSeedCuts(h.level, h.k);
  return arena;
}

std::vector<LabelEntry> ComputeLabelDefinition3(const VertexHierarchy& h,
                                                VertexId v,
                                                Definition3Scratch* scratch) {
  // The literal procedure: keep a set of marked vertices; repeatedly unmark
  // the one with the smallest level number and relax its DAG out-edges.
  // Levels strictly increase along DAG edges, so processing by level is a
  // topological order and every d is final when its vertex is unmarked.
  struct QEntry {
    std::uint32_t level;
    VertexId node;
    bool operator>(const QEntry& o) const {
      if (level != o.level) return level > o.level;
      return node > o.node;
    }
  };
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<QEntry>>
      marked;

  // Tentative distances live in an epoch-stamped dense array (reusable via
  // *scratch) instead of a hash map: lookup is one indexed load, and reuse
  // across a full-graph oracle sweep skips the O(n) clear.
  Definition3Scratch local;
  Definition3Scratch& s = scratch != nullptr ? *scratch : local;
  const std::size_t n = h.NumVertices();
  if (s.best.size() != n) {
    s.best.assign(n, LabelEntry());
    s.stamp.assign(n, 0);
    s.epoch = 0;
  }
  if (++s.epoch == 0) {
    s.stamp.assign(n, 0);  // epoch wrap: invalidate all stamps
    s.epoch = 1;
  }
  s.touched.clear();
  const std::uint32_t epoch = s.epoch;
  auto touch = [&](VertexId u, const LabelEntry& e) {
    s.best[u] = e;
    if (s.stamp[u] != epoch) {
      s.stamp[u] = epoch;
      s.touched.push_back(u);
    }
  };

  touch(v, LabelEntry(v, 0));
  marked.push({h.level[v], v});
  while (!marked.empty()) {
    QEntry top = marked.top();
    marked.pop();
    const VertexId u = top.node;
    const Distance du = s.best[u].dist;
    if (h.level[u] == h.k) continue;  // residual vertices are DAG sinks
    for (const HierEdge& e : h.removed_adj[u]) {
      const Distance cand = du + e.w;
      const VertexId via = (u == v) ? e.via : u;
      if (s.stamp[e.to] != epoch) {
        touch(e.to, LabelEntry(e.to, cand, via));
        marked.push({h.level[e.to], e.to});
      } else if (cand < s.best[e.to].dist) {
        s.best[e.to] = LabelEntry(e.to, cand, via);
      }
    }
  }

  std::vector<LabelEntry> out;
  out.reserve(s.touched.size());
  std::sort(s.touched.begin(), s.touched.end());
  for (VertexId u : s.touched) out.push_back(s.best[u]);
  return out;
}

}  // namespace islabel
