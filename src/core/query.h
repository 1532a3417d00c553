// Query processing over the k-level vertex hierarchy (§5.2).
//
// A query (s, t) is answered in two stages:
//   1. Fetch label(s) and label(t) (a borrowed LabelView over the arena
//      slab, or one disk read each — the paper's Time (a)) and evaluate
//      Equation 1 over their intersection, giving the pruning bound µ.
//   2. If one of the two labels has no entry in G_k, µ is the answer
//      (Theorem 3): an Equation 1 answer, whatever the query's Table 5
//      type (LocationType). Otherwise run the label-based bidirectional
//      Dijkstra of Algorithm 1 on G_k, seeded with the label entries that
//      land in G_k and pruned by min(FQ) + min(RQ) >= µ (Theorem 4). This
//      is the paper's Time (b).
//      µ starts at min(Equation 1, B), B the landmark bound: the shortest
//      walk from the forward seeds to one of the hierarchy's landmarks and
//      on to the reverse seeds, read from its table of G_k distances. B
//      bounds a real seeded path from above, so it cannot change an
//      answer, and each relax loop can stop from the first settle (DESIGN
//      §7.6). A path query starts at B + 1, so that the search still
//      records its own meet. The one-to-many search takes no bound.
//      Each round expands the side whose frontier holds fewer entries
//      (DESIGN §7.4). G_k's lists run in ascending weight, so a settled
//      vertex's list is read only up to its first edge whose new distance
//      plus the opposite heap's minimum cannot beat µ: that edge and every
//      later one push nothing (DESIGN §7.5). The stop rule stays exact in
//      any order.
//
// Each side of the search reads its own labels and its own G_k lists (a
// SearchSide). The undirected index gives both sides its one label source
// and g_k; the directed index (§8.2, core/directed.h) gives the forward
// side the out-labels and out-arcs and the reverse side the in-labels and
// in-arcs, so both run this one loop.
//
// The engine owns every piece of per-query state (seed buffers, search
// arrays, heaps); after the first query on a given hierarchy the hot path
// performs no heap allocation.

#ifndef ISLABEL_CORE_QUERY_H_
#define ISLABEL_CORE_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/hierarchy.h"
#include "core/label.h"
#include "core/label_arena.h"
#include "core/labeling.h"
#include "graph/csr.h"
#include "storage/label_store.h"
#include "util/radix_heap.h"
#include "util/status.h"

namespace islabel {

/// Where the two endpoints sit relative to G_k — the three query classes of
/// Table 5 (1: both in G_k, 2: exactly one, 3: neither).
enum class LocationType : std::uint8_t {
  kBothInCore = 1,
  kOneInCore = 2,
  kNoneInCore = 3,
};

/// Per-query measurements backing Tables 4, 5 and 8.
struct QueryStats {
  double label_fetch_seconds = 0.0;  // Time (a)
  double search_seconds = 0.0;       // Time (b)
  std::uint64_t label_ios = 0;       // physical label reads issued
  LocationType location = LocationType::kNoneInCore;
  bool used_search = false;          // false = answered by Equation 1 alone
  std::uint64_t settled = 0;         // vertices settled by bi-Dijkstra
  // G_k edges read by bi-Dijkstra, each list up to and including the
  // edge that stopped it (DESIGN §7.5); the skipped rest is not counted.
  std::uint64_t relaxed = 0;
  std::size_t intersection_size = 0;
};

/// How a path-capturing query met in the middle.
enum class MeetKind : std::uint8_t {
  kNone = 0,  // unreachable
  kEq1 = 1,   // µ from Equation 1 (common ancestor witness)
  kSearch = 2 // bi-Dijkstra meet vertex in G_k
};

/// One G_k tree edge on a reconstructed search path.
struct PathStep {
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  VertexId via = kInvalidVertex;  // augmenting-edge intermediate, if any
};

/// Everything path reconstruction (§8.1) needs from a query.
struct PathCapture {
  MeetKind kind = MeetKind::kNone;
  Distance dist = kInfDistance;
  VertexId meet = kInvalidVertex;
  // kind == kEq1: the two label entries of the witness.
  LabelEntry eq1_s;
  LabelEntry eq1_t;
  // kind == kSearch: label entries seeding each side's chain (node is the
  // chain's first G_k vertex), then the G_k tree edges toward `meet`,
  // ordered from seed to meet.
  LabelEntry seed_s;
  LabelEntry seed_t;
  std::vector<PathStep> steps_s;
  std::vector<PathStep> steps_t;
};

/// Serves labels from the contiguous LabelArena (the paper's IM-ISL) or a
/// disk-resident LabelStore (one read per label).
class LabelProvider {
 public:
  explicit LabelProvider(const LabelArena* arena) : arena_(arena) {}
  explicit LabelProvider(LabelStore* store) : store_(store) {}

  /// Points *view at label(v); `scratch` backs the disk path. *seed_start
  /// (optional) receives the arena's precomputed first-core cut — always a
  /// valid scan start, 0 when unknown.
  Status View(VertexId v, LabelView* view, std::vector<LabelEntry>* scratch,
              std::uint64_t* ios, std::uint32_t* seed_start = nullptr);

 private:
  const LabelArena* arena_ = nullptr;
  LabelStore* store_ = nullptr;
};

/// What one side of the search reads: the labels of its endpoint and the
/// G_k lists it relaxes, over dense core ids. Side 0 (forward, from s)
/// relaxes v's list as arcs v -> u; side 1 (reverse, from t) as arcs
/// u -> v.
struct SearchSide {
  LabelProvider labels;
  const Csr* arcs = nullptr;
};

/// Executes distance queries against a built hierarchy + labels.
/// Owns reusable per-query scratch; not thread-safe (clone one engine per
/// thread if needed — the hierarchy itself is immutable and shared).
class QueryEngine {
 public:
  /// Undirected: both sides read `provider` and hierarchy->g_k.
  QueryEngine(const VertexHierarchy* hierarchy, LabelProvider provider);
  /// The hierarchy supplies levels and dense core ids; its g_k is read
  /// only through the sides' `arcs`. Its landmark table, which describes
  /// its g_k, gives the starting bound, so sides over other arcs need a
  /// hierarchy whose g_k and table are empty (the directed index's).
  QueryEngine(const VertexHierarchy* hierarchy, SearchSide forward,
              SearchSide reverse);

  /// Point-to-point distance (Equation 1 / Algorithm 1). kInfDistance means
  /// unreachable.
  Status Query(VertexId s, VertexId t, Distance* out,
               QueryStats* stats = nullptr);

  /// Distance plus the bookkeeping needed to reconstruct the path.
  Status DistanceWithCapture(VertexId s, VertexId t, PathCapture* capture);

  /// One-to-many: distances from s to every target ((*out)[i] = d(s,
  /// targets[i])). label(s) is fetched and its Algorithm 1 seeds extracted
  /// once, and the forward bi-Dijkstra state (the "forward ball") is a
  /// single Dijkstra shared by all targets — it only ever grows, so work
  /// spent expanding from s amortizes across the batch.
  Status QueryOneToMany(VertexId s, const std::vector<VertexId>& targets,
                        std::vector<Distance>* out);

  /// Ablation hook (bench_ablation_pruning, and IM-DIJ in
  /// bench_table8_comparison): when true, the bi-Dijkstra starts with
  /// µ = ∞ instead of min(Equation 1, landmark bound); answers stay exact
  /// (the final result still takes min with Equation 1). The search then
  /// loses the two starting bounds only: µ still tightens as the two sides
  /// meet, and from then on the stop rule and each relax loop's early stop
  /// (DESIGN §7.5) prune against it.
  void set_disable_mu_pruning(bool v) { disable_mu_pruning_ = v; }

  /// Test hook: plants the epoch counter so the wrap path (one in 2^32
  /// queries) can be exercised deterministically.
  void SetEpochForTesting(std::uint32_t epoch) { epoch_ = epoch; }

 private:
  /// Equation 1, then (unless that is an Equation 1 answer) the
  /// bi-Dijkstra of Algorithm 1 over G_k.
  Status Run(VertexId s, VertexId t, Distance* out, QueryStats* stats,
             PathCapture* capture);

  /// Points *label at label(v) for `side` (0 = s, 1 = t): the synthesized
  /// {(v, 0)} of a core endpoint, which touches no provider, or else the
  /// side's provider's view with its first-core cut in *cut. The view
  /// stays valid until the next fetch for the same side.
  Status FetchLabel(int side, VertexId v, LabelView* label,
                    std::uint32_t* cut, std::uint64_t* ios);

  /// Stamps seeds_[side] into that side's search state under `epoch` and
  /// refills its heap with them.
  void SeedSide(int side, std::uint32_t epoch);

  /// The Algorithm 1 search loop with independent per-side epochs — the
  /// one-to-many path keeps the forward side warm across targets. When
  /// `forward_ball` is set, the forward side is that warm ball, which
  /// later targets reuse, so it keeps every push (DESIGN §7.5).
  Distance SearchLoop(Distance mu, std::uint32_t fwd_epoch,
                      std::uint32_t rev_epoch, bool forward_ball,
                      QueryStats* stats, PathCapture* capture);

  /// Algorithm 1 lines 1-2: the entries of `label` (scanned from `cut`)
  /// that land in G_k, their nodes mapped to dense core ids, into *seeds.
  void ExtractSeeds(LabelView label, std::uint32_t cut,
                    std::vector<LabelEntry>* seeds) const;

  void EnsureScratch();
  /// Guarantees the next `count` epoch bumps cannot wrap the 32-bit
  /// counter (stamps compare for exact equality, so an epoch value may
  /// never be reused while stale stamps survive). Call after
  /// EnsureScratch so a reset covers the full — possibly grown — range.
  void ReserveEpochs(std::uint64_t count);
  /// Walks `side`'s parent chain (stamped under `epoch`) from `meet` back
  /// to its seed, writing the G_k tree edges and the seed's label entry.
  void TraceSide(int side, VertexId meet, std::uint32_t epoch,
                 const LabelEntry* seeds_begin, std::size_t seeds_count,
                 LabelEntry* seed_out, std::vector<PathStep>* steps_out) const;

  const VertexHierarchy* h_;
  SearchSide side_[2];

  // Epoch-stamped search state: one record per G_k vertex, indexed by
  // dense core id (so |G_k| records, not n, in BFS order), holding both
  // sides, so a relaxation's own-side update and its opposite-side µ
  // check touch one cache line (DESIGN §7.2). Allocated lazily at first
  // query, reused across queries without clearing. A heap entry is live
  // exactly when its key equals its vertex's stamped distance: pushes are
  // strict improvements and each side pops in order, so a settled vertex
  // keeps no matching entry. The search runs entirely in dense ids;
  // TraceSide maps what leaves the engine back to global ids.
  struct alignas(32) CoreState {
    Distance dist[2] = {kInfDistance, kInfDistance};
    std::uint32_t stamp[2] = {0, 0};  // epoch when dist[side] became valid
    VertexId parent[2] = {kInvalidVertex, kInvalidVertex};  // invalid = seed
  };
  static_assert(sizeof(CoreState) == 32 && alignof(CoreState) == 32,
                "a search record must never straddle a cache line");
  std::vector<CoreState> state_;
  std::uint32_t epoch_ = 0;

  // Reusable per-query buffers (capacity persists across queries; the hot
  // path only clears them). seeds_[01]_ hold the Algorithm 1 seeds, nodes
  // in dense core ids;
  // pq_[01]_ are monotone radix heaps (Dijkstra pops keys in
  // non-decreasing order and every push is pop + ω ≥ pop, so the monotone
  // contract holds per side, however the rounds alternate between
  // sides); fetch_[01]_ back the disk-resident label
  // decode; self_[01]_ hold the synthesized trivial label of a core
  // endpoint.
  std::vector<LabelEntry> seeds_[2];
  RadixHeap pq_[2];
  std::vector<LabelEntry> fetch_[2];
  LabelEntry self_[2];
  bool disable_mu_pruning_ = false;
};

}  // namespace islabel

#endif  // ISLABEL_CORE_QUERY_H_
