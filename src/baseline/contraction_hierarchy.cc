#include "baseline/contraction_hierarchy.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>

#include "util/indexed_heap.h"

namespace islabel {

namespace {

// Mutable overlay graph during contraction: sorted adjacency with
// min-merge. Entries carry the shortcut's middle vertex (kInvalidVertex
// for original edges) so the final up lists can unpack paths.
struct Overlay {
  struct Entry {
    VertexId to;
    Weight w;
    VertexId via;
  };
  std::vector<std::vector<Entry>> adj;

  void AddOrMin(VertexId u, VertexId v, Weight w, VertexId via) {
    auto& list = adj[u];
    auto it = std::lower_bound(
        list.begin(), list.end(), v,
        [](const Entry& e, VertexId x) { return e.to < x; });
    if (it != list.end() && it->to == v) {
      if (w < it->w) {
        it->w = w;
        it->via = via;  // the via must always describe the stored weight
      }
    } else {
      list.insert(it, Entry{v, w, via});
    }
  }
  void Remove(VertexId u, VertexId v) {
    auto& list = adj[u];
    auto it = std::lower_bound(
        list.begin(), list.end(), v,
        [](const Entry& e, VertexId x) { return e.to < x; });
    if (it != list.end() && it->to == v) list.erase(it);
  }
};

// Bounded witness search: is there a u-w path avoiding `skip` of length
// <= limit? Conservative: returns false when the bound is hit.
bool HasWitness(const Overlay& g, VertexId source, VertexId target,
                VertexId skip, Distance limit, std::size_t max_settled) {
  using Entry = std::pair<Distance, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  std::unordered_map<VertexId, Distance> dist;
  pq.push({0, source});
  dist[source] = 0;
  std::size_t settled = 0;
  while (!pq.empty() && settled < max_settled) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    if (v == target) return d <= limit;
    if (d > limit) return false;
    ++settled;
    for (const auto& e : g.adj[v]) {
      if (e.to == skip) continue;
      const Distance nd = d + e.w;
      auto it = dist.find(e.to);
      if (it == dist.end() || nd < it->second) {
        dist[e.to] = nd;
        pq.push({nd, e.to});
      }
    }
  }
  return false;
}

// Edge-difference priority: shortcuts needed minus edges removed. For
// high-degree nodes the witness probing is skipped and the worst case
// assumed — the order heuristic then simply defers hubs, which is the
// behavior CH wants anyway.
constexpr std::size_t kWitnessDegreeCap = 48;

int EdgeDifference(const Overlay& g, VertexId v, std::size_t witness_budget) {
  const auto& nbrs = g.adj[v];
  const std::size_t d = nbrs.size();
  if (d > kWitnessDegreeCap) {
    return static_cast<int>(d * (d - 1) / 2) - static_cast<int>(d);
  }
  int shortcuts = 0;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i + 1; j < d; ++j) {
      const Distance through = static_cast<Distance>(nbrs[i].w) + nbrs[j].w;
      if (!HasWitness(g, nbrs[i].to, nbrs[j].to, v, through,
                      witness_budget)) {
        ++shortcuts;
      }
    }
  }
  return shortcuts - static_cast<int>(d);
}

}  // namespace

Result<ContractionHierarchy> ContractionHierarchy::Build(const Graph& g) {
  const VertexId n = g.NumVertices();
  ContractionHierarchy ch;
  ch.order_.assign(n, 0);
  ch.up_.assign(n, {});

  Overlay overlay;
  overlay.adj.assign(n, {});
  for (VertexId v = 0; v < n; ++v) {
    auto nbrs = g.Neighbors(v);
    auto ws = g.NeighborWeights(v);
    overlay.adj[v].reserve(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      overlay.adj[v].push_back(Overlay::Entry{nbrs[i], ws[i], kInvalidVertex});
    }
  }

  // Witness effort scales down on dense graphs to keep preprocessing
  // tractable; missed witnesses only cost extra shortcuts.
  const std::size_t witness_budget = 64;

  // Lazy priority queue over edge difference. A vertex's priority is only
  // re-evaluated when one of its neighbors was contracted since the last
  // evaluation (dirty flag); this bounds the witness-search volume, which
  // otherwise thrashes on dense power-law fill-in.
  IndexedHeap heap(n);
  std::vector<bool> dirty(n, false);
  for (VertexId v = 0; v < n; ++v) {
    const int prio = EdgeDifference(overlay, v, witness_budget);
    heap.Push(v, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(prio) + (1LL << 32)));
  }

  std::uint32_t rank = 0;
  while (!heap.Empty()) {
    auto [v, key] = heap.PopMin();
    (void)key;
    if (dirty[v]) {
      dirty[v] = false;
      const int fresh = EdgeDifference(overlay, v, witness_budget);
      const std::uint64_t fresh_key = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(fresh) + (1LL << 32));
      if (!heap.Empty() && fresh_key > heap.MinKey()) {
        heap.Push(v, fresh_key);
        continue;
      }
    }

    ch.order_[v] = rank++;
    // Materialize shortcuts among v's remaining neighbors. Above the degree
    // cap, witness probing is skipped: every pair gets a (possibly
    // redundant) shortcut — correct, and exactly the fill-in degeneration
    // CH suffers on hub-dominated graphs.
    const auto nbrs = overlay.adj[v];  // copy: overlay mutates below
    const bool probe = nbrs.size() <= kWitnessDegreeCap;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const std::uint64_t wide =
            static_cast<std::uint64_t>(nbrs[i].w) + nbrs[j].w;
        if (wide > std::numeric_limits<Weight>::max()) {
          return Status::OutOfRange("shortcut weight overflows Weight");
        }
        const Distance through = static_cast<Distance>(wide);
        if (!probe ||
            !HasWitness(overlay, nbrs[i].to, nbrs[j].to, v, through,
                        witness_budget)) {
          overlay.AddOrMin(nbrs[i].to, nbrs[j].to,
                           static_cast<Weight>(wide), v);
          overlay.AddOrMin(nbrs[j].to, nbrs[i].to,
                           static_cast<Weight>(wide), v);
          ++ch.num_shortcuts_;
        }
      }
    }
    // Record v's upward edges and remove v from the overlay.
    for (const auto& e : nbrs) {
      ch.up_[v].push_back(UpEdge{e.to, e.w, e.via});
      overlay.Remove(e.to, v);
      dirty[e.to] = true;
    }
    overlay.adj[v].clear();
    overlay.adj[v].shrink_to_fit();
  }

  // up_[v] currently holds *all* edges at contraction time; every endpoint
  // has a higher rank by construction (they were still in the overlay), so
  // the lists are already upward-only. They are also sorted by target
  // (overlay adjacency is sorted), which FindUpEdge relies on.
  return ch;
}

ContractionHierarchy ContractionHierarchy::FromParts(
    std::vector<std::uint32_t> order, std::vector<std::vector<UpEdge>> up,
    std::uint64_t num_shortcuts) {
  ContractionHierarchy ch;
  ch.order_ = std::move(order);
  ch.up_ = std::move(up);
  ch.num_shortcuts_ = num_shortcuts;
  return ch;
}

std::uint64_t ContractionHierarchy::NumUpEdges() const {
  std::uint64_t total = 0;
  for (const auto& l : up_) total += l.size();
  return total;
}

double ContractionHierarchy::MeanUpDegree() const {
  if (up_.empty()) return 0.0;
  return static_cast<double>(NumUpEdges()) /
         static_cast<double>(up_.size());
}

Distance ContractionHierarchy::Query(VertexId s, VertexId t, Scratch* scratch,
                                     std::uint64_t* settled_out) const {
  const VertexId n = NumVertices();
  if (s >= n || t >= n) return kInfDistance;
  if (s == t) {
    if (settled_out != nullptr) *settled_out = 0;
    return 0;
  }
  return Search(s, t, scratch, settled_out, nullptr);
}

Distance ContractionHierarchy::Search(VertexId s, VertexId t,
                                      Scratch* scratch,
                                      std::uint64_t* settled_out,
                                      VertexId* meet_out) const {
  const VertexId n = NumVertices();
  for (Scratch::Side& side : scratch->sides) {
    if (side.dist.size() != n) {
      side.dist.assign(n, kInfDistance);
      side.stamp.assign(n, 0);
      side.parent.assign(n, kInvalidVertex);
      scratch->epoch = 0;
    }
  }
  // Epoch wraparound would resurrect stale stamps; reset instead.
  if (scratch->epoch == std::numeric_limits<std::uint32_t>::max()) {
    for (Scratch::Side& side : scratch->sides) {
      side.stamp.assign(n, 0);
    }
    scratch->epoch = 0;
  }
  ++scratch->epoch;
  const std::uint32_t epoch = scratch->epoch;
  auto dist_of = [&](int side, VertexId v) -> Distance {
    return scratch->sides[side].stamp[v] == epoch
               ? scratch->sides[side].dist[v]
               : kInfDistance;
  };

  const std::greater<std::pair<Distance, VertexId>> after;  // min-heap
  const VertexId source[2] = {s, t};
  for (int side = 0; side < 2; ++side) {
    Scratch::Side& state = scratch->sides[side];
    state.dist[source[side]] = 0;
    state.stamp[source[side]] = epoch;
    state.parent[source[side]] = kInvalidVertex;
    state.heap.assign(1, {0, source[side]});
  }
  auto& pq0 = scratch->sides[0].heap;
  auto& pq1 = scratch->sides[1].heap;

  Distance best = kInfDistance;
  VertexId meet = kInvalidVertex;
  std::uint64_t settled = 0;
  // Upward searches cannot prune with min_f + min_r (paths are not
  // monotone in distance along the up-down profile); the standard CH stop
  // rule halts a side once its queue minimum exceeds µ.
  while (!pq0.empty() || !pq1.empty()) {
    for (int side = 0; side < 2; ++side) {
      auto& pq = scratch->sides[side].heap;
      if (pq.empty()) continue;
      const auto [d, v] = pq.front();
      if (d >= best) {
        // This side can no longer improve µ.
        pq.clear();
        continue;
      }
      std::pop_heap(pq.begin(), pq.end(), after);
      pq.pop_back();
      if (d != dist_of(side, v)) continue;
      ++settled;
      const Distance through = SatAdd(dist_of(0, v), dist_of(1, v));
      if (through < best) {
        best = through;
        meet = v;
      }
      for (const UpEdge& e : up_[v]) {
        const Distance nd = d + e.w;
        if (nd < dist_of(side, e.to)) {
          scratch->sides[side].dist[e.to] = nd;
          scratch->sides[side].stamp[e.to] = epoch;
          scratch->sides[side].parent[e.to] = v;
          pq.emplace_back(nd, e.to);
          std::push_heap(pq.begin(), pq.end(), after);
        }
      }
    }
  }
  if (settled_out != nullptr) *settled_out = settled;
  if (meet_out != nullptr) *meet_out = meet;
  return best;
}

const ContractionHierarchy::UpEdge* ContractionHierarchy::FindUpEdge(
    VertexId a, VertexId b) const {
  const VertexId lo = order_[a] < order_[b] ? a : b;
  const VertexId hi = lo == a ? b : a;
  const auto& list = up_[lo];
  auto it = std::lower_bound(
      list.begin(), list.end(), hi,
      [](const UpEdge& e, VertexId x) { return e.to < x; });
  if (it != list.end() && it->to == hi) return &*it;
  return nullptr;
}

bool ContractionHierarchy::AppendUnpacked(VertexId u, VertexId v,
                                          std::vector<VertexId>* out) const {
  // LIFO expansion, left segment pushed last so it pops first: the edges
  // of (u, v)'s expansion land in path order.
  std::vector<std::pair<VertexId, VertexId>> stack;
  stack.emplace_back(u, v);
  while (!stack.empty()) {
    const auto [a, b] = stack.back();
    stack.pop_back();
    const UpEdge* e = FindUpEdge(a, b);
    if (e == nullptr) return false;
    if (e->via == kInvalidVertex) {
      out->push_back(b);
    } else {
      stack.emplace_back(e->via, b);
      stack.emplace_back(a, e->via);
    }
  }
  return true;
}

Distance ContractionHierarchy::Path(VertexId s, VertexId t, Scratch* scratch,
                                    std::vector<VertexId>* path) const {
  path->clear();
  const VertexId n = NumVertices();
  if (s >= n || t >= n) return kInfDistance;
  if (s == t) {
    path->push_back(s);
    return 0;
  }
  VertexId meet = kInvalidVertex;
  const Distance d = Search(s, t, scratch, nullptr, &meet);
  if (d == kInfDistance || meet == kInvalidVertex) return kInfDistance;

  // Climb each side's parent chain from the meet, then unpack every
  // packed up edge. Parents are only followed for vertices reached this
  // epoch (the chain from the meet is, by construction).
  std::vector<VertexId> fwd;  // s ... meet in the up graph
  for (VertexId v = meet; v != kInvalidVertex;
       v = scratch->sides[0].parent[v]) {
    fwd.push_back(v);
  }
  std::reverse(fwd.begin(), fwd.end());
  std::vector<VertexId> bwd;  // meet ... t in the up graph
  for (VertexId v = meet; v != kInvalidVertex;
       v = scratch->sides[1].parent[v]) {
    bwd.push_back(v);
  }

  path->push_back(fwd[0]);
  bool ok = true;
  for (std::size_t i = 1; i < fwd.size() && ok; ++i) {
    ok = AppendUnpacked(fwd[i - 1], fwd[i], path);
  }
  for (std::size_t i = 1; i < bwd.size() && ok; ++i) {
    ok = AppendUnpacked(bwd[i - 1], bwd[i], path);
  }
  if (!ok) {
    path->clear();
    return kInfDistance;
  }
  return d;
}

}  // namespace islabel
