#include "core/query.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/logging.h"
#include "util/timer.h"

namespace islabel {

namespace {

// The expansion order of Algorithm 1's stage 2 (DESIGN §7.4): the side to
// expand next, 0 (forward) or 1 (reverse), is the one whose frontier holds
// fewer entries (Pohl's cardinality rule); ties go forward. A frontier's
// size is its heap's entry count, lazily deleted entries included, plus
// the edges it skipped because they could not beat µ (DESIGN §7.5):
// counting those keeps close to the order of the unpruned search.
//
// Not the side whose heap minimum, its radius, is smaller: the two sides'
// seeds start at different label distances (a core endpoint seeds at 0, a
// below-core one at its label depth), and the radius rule lets the near
// side flood G_k until its radius catches up. The order never changes an
// answer: µ is tightened against the opposite side's tentative distance at
// every settle and at every relaxation that records a distance, and
// against the warm forward ball when a one-to-many target is seeded, so
// the stop rule min(FQ) + min(RQ) >= µ is exact whichever side runs. The
// loop checks the stop rule first, and an empty heap's minimum is ∞, so an
// exhausted side is never chosen.
int SmallerFrontier(std::size_t forward, std::size_t reverse) {
  return forward <= reverse ? 0 : 1;
}

// Per landmark l, min over `seeds` (dense core ids) of d + d_{G_k}(seed, l):
// one side of the landmark bound of DESIGN §7.6.
void NearestThroughLandmarks(const std::vector<LandmarkRow>& table,
                             const std::vector<LabelEntry>& seeds,
                             Distance (&out)[kLandmarks]) {
  std::fill(out, out + kLandmarks, kInfDistance);
  for (const LabelEntry& e : seeds) {
    const LandmarkRow& row = table[e.node];
    for (std::size_t l = 0; l < kLandmarks; ++l) {
      if (row.dist[l] == kLandmarkFar) continue;
      out[l] = std::min(out[l], SatAdd(e.dist, row.dist[l]));
    }
  }
}

// B = min over landmarks l of [min_a (d_a + d(a, l)) + min_b (d_b + d(b, l))]
// over the two seed sets (DESIGN §7.6). Each term is the length of a walk
// s -> a -> l -> b -> t through the labels and G_k, so B bounds from above
// the best seeded G_k path. kInfDistance when the table is empty.
Distance LandmarkBound(const std::vector<LandmarkRow>& table,
                       const std::vector<LabelEntry>& forward,
                       const std::vector<LabelEntry>& reverse) {
  if (table.empty()) return kInfDistance;
  Distance to[kLandmarks], from[kLandmarks];
  NearestThroughLandmarks(table, forward, to);
  NearestThroughLandmarks(table, reverse, from);
  Distance bound = kInfDistance;
  for (std::size_t l = 0; l < kLandmarks; ++l) {
    bound = std::min(bound, SatAdd(to[l], from[l]));
  }
  return bound;
}

}  // namespace

Status LabelProvider::View(VertexId v, LabelView* view,
                           std::vector<LabelEntry>* scratch,
                           std::uint64_t* ios, std::uint32_t* seed_start) {
  if (seed_start != nullptr) *seed_start = 0;
  if (arena_ != nullptr) {
    if (v >= arena_->NumVertices()) {
      return Status::OutOfRange("vertex out of range");
    }
    *view = arena_->View(v);
    if (seed_start != nullptr) *seed_start = arena_->SeedStart(v);
    return Status::OK();
  }
  ISLABEL_RETURN_IF_ERROR(store_->GetLabel(v, scratch));
  if (ios != nullptr) *ios += 1;
  *view = LabelView(*scratch);
  return Status::OK();
}

QueryEngine::QueryEngine(const VertexHierarchy* hierarchy,
                         LabelProvider provider)
    : QueryEngine(hierarchy, {provider, &hierarchy->g_k},
                  {provider, &hierarchy->g_k}) {}

QueryEngine::QueryEngine(const VertexHierarchy* hierarchy, SearchSide forward,
                         SearchSide reverse)
    : h_(hierarchy), side_{forward, reverse} {}

void QueryEngine::ExtractSeeds(LabelView label, std::uint32_t cut,
                               std::vector<LabelEntry>* seeds) const {
  seeds->clear();
  for (std::size_t i = cut; i < label.size(); ++i) {
    const VertexId c = h_->core_id[label[i].node];
    if (c != kInvalidVertex) {
      seeds->emplace_back(c, label[i].dist, label[i].via);
    }
  }
}

Status QueryEngine::FetchLabel(int side, VertexId v, LabelView* label,
                               std::uint32_t* cut, std::uint64_t* ios) {
  // Core vertices carry the trivial label {(v, 0)}: it is synthesized in
  // engine-owned storage, which is why the paper's Type 1 queries (both
  // endpoints in G_k) have Time (a) = 0.
  if (h_->InCore(v)) {
    self_[side] = LabelEntry(v, 0);
    *label = LabelView(&self_[side], 1);
    *cut = 0;
    return Status::OK();
  }
  return side_[side].labels.View(v, label, &fetch_[side], ios, cut);
}

void QueryEngine::SeedSide(int side, std::uint32_t epoch) {
  pq_[side].Clear();
  for (const LabelEntry& e : seeds_[side]) {
    CoreState& node = state_[e.node];
    // Label entries are unique per ancestor, so a fresh epoch sees each
    // node at most once.
    node.dist[side] = e.dist;
    node.stamp[side] = epoch;
    node.parent[side] = kInvalidVertex;  // marks "label seed"
    pq_[side].Push(e.node, e.dist);
  }
}

void QueryEngine::EnsureScratch() {
  // assign (not resize) on any size change: it rewrites every element, so
  // a grown vector can never carry stamps from before the growth.
  // ReserveEpochs' wrap reset relies on this — after a resize all stamps
  // are 0, an epoch value the counter never produces.
  const std::size_t core_size = h_->core_vertex.size();
  if (state_.size() != core_size) state_.assign(core_size, CoreState{});
}

void QueryEngine::ReserveEpochs(std::uint64_t count) {
  // Stamps compare for exact equality against the epoch, so an epoch
  // value may not be reused while stamps from its previous lifetime
  // survive. When the requested bumps would wrap the 32-bit counter (one
  // in 2^32 queries), wipe the search state and restart from 0 (the first
  // bump hands out 1; default-constructed stamps are 0 and stay invalid).
  if (count <= std::numeric_limits<std::uint32_t>::max() - epoch_) return;
  state_.assign(state_.size(), CoreState{});
  epoch_ = 0;
}

Status QueryEngine::Query(VertexId s, VertexId t, Distance* out,
                          QueryStats* stats) {
  return Run(s, t, out, stats, nullptr);
}

Status QueryEngine::DistanceWithCapture(VertexId s, VertexId t,
                                        PathCapture* capture) {
  *capture = PathCapture{};
  Distance d = kInfDistance;
  ISLABEL_RETURN_IF_ERROR(Run(s, t, &d, nullptr, capture));
  capture->dist = d;
  return Status::OK();
}

Status QueryEngine::Run(VertexId s, VertexId t, Distance* out,
                        QueryStats* stats, PathCapture* capture) {
  const VertexId n = h_->NumVertices();
  if (s >= n || t >= n) {
    return Status::OutOfRange("query vertex id out of range");
  }
  if (stats != nullptr) *stats = QueryStats{};

  if (s == t) {
    *out = 0;
    if (stats != nullptr) {
      stats->location = h_->InCore(s) ? LocationType::kBothInCore
                                      : LocationType::kNoneInCore;
    }
    if (capture != nullptr) {
      capture->kind = MeetKind::kEq1;
      capture->meet = s;
      capture->eq1_s = LabelEntry(s, 0);
      capture->eq1_t = LabelEntry(s, 0);
    }
    return Status::OK();
  }

  // Stage 1: label retrieval — the paper's query Time (a). Time (a) and
  // (b) are timed only for callers that asked for stats; a served query
  // reads no clock in the engine.
  std::optional<WallTimer> timer;
  if (stats != nullptr) timer.emplace();
  std::uint64_t ios = 0;
  LabelView label_s, label_t;
  std::uint32_t cut_s = 0, cut_t = 0;
  ISLABEL_RETURN_IF_ERROR(FetchLabel(0, s, &label_s, &cut_s, &ios));
  ISLABEL_RETURN_IF_ERROR(FetchLabel(1, t, &label_t, &cut_t, &ios));
  const Eq1Result eq1 = EvaluateEq1(label_s, label_t);
  if (stats != nullptr) {
    stats->label_fetch_seconds = timer->ElapsedSeconds();
    stats->label_ios = ios;
    const int in_core =
        (h_->InCore(s) ? 1 : 0) + (h_->InCore(t) ? 1 : 0);
    stats->location = in_core == 2   ? LocationType::kBothInCore
                      : in_core == 1 ? LocationType::kOneInCore
                                     : LocationType::kNoneInCore;
    stats->intersection_size = eq1.intersection_size;
  }
  if (capture != nullptr && eq1.witness != kInvalidVertex) {
    capture->kind = MeetKind::kEq1;
    capture->meet = eq1.witness;
    capture->eq1_s = eq1.s_entry;
    capture->eq1_t = eq1.t_entry;
  }

  // Seeds: label entries landing in G_k (Algorithm 1 lines 1-2), scanned
  // from the precomputed first-core cut into engine-owned buffers. Empty on
  // either side means an Equation 1 answer: µ is the distance (Theorem 3).
  ExtractSeeds(label_s, cut_s, &seeds_[0]);
  ExtractSeeds(label_t, cut_t, &seeds_[1]);
  if (seeds_[0].empty() || seeds_[1].empty()) {
    *out = eq1.dist;
    return Status::OK();
  }

  // Stage 2: label-based bidirectional Dijkstra on G_k — Time (b). Both
  // sides share one fresh epoch. µ starts at min(Equation 1, B), B the
  // landmark bound (DESIGN §7.6); a path query starts at B + 1, so that
  // the search still finds a path no longer than B and records its meet.
  if (stats != nullptr) {
    timer->Restart();
    stats->used_search = true;
  }
  EnsureScratch();
  ReserveEpochs(1);
  const std::uint32_t epoch = ++epoch_;
  SeedSide(0, epoch);
  SeedSide(1, epoch);
  Distance mu = kInfDistance;
  if (!disable_mu_pruning_) {
    const Distance bound = LandmarkBound(h_->landmarks, seeds_[0], seeds_[1]);
    mu = std::min(eq1.dist, capture == nullptr ? bound : SatAdd(bound, 1));
  }
  Distance d = SearchLoop(mu, epoch, epoch, /*forward_ball=*/false, stats,
                          capture);
  if (disable_mu_pruning_ && eq1.dist < d) d = eq1.dist;
  if (stats != nullptr) stats->search_seconds = timer->ElapsedSeconds();
  *out = d;
  return Status::OK();
}

Status QueryEngine::QueryOneToMany(VertexId s,
                                   const std::vector<VertexId>& targets,
                                   std::vector<Distance>* out) {
  out->assign(targets.size(), kInfDistance);
  const VertexId n = h_->NumVertices();
  if (s >= n) return Status::OutOfRange("query vertex id out of range");
  for (const VertexId t : targets) {
    if (t >= n) return Status::OutOfRange("query vertex id out of range");
  }
  if (targets.empty()) return Status::OK();

  // label(s) is fetched and its Algorithm 1 seeds extracted exactly once.
  // The view stays valid for the whole batch: the arena slab is immutable
  // and side 0's fetch buffers are not touched again.
  LabelView label_s;
  std::uint32_t cut_s = 0;
  ISLABEL_RETURN_IF_ERROR(FetchLabel(0, s, &label_s, &cut_s, nullptr));
  ExtractSeeds(label_s, cut_s, &seeds_[0]);

  EnsureScratch();
  // One epoch for the shared forward ball plus one per target's reverse
  // search; reserving them up front keeps a wrap from wiping the warm
  // forward state mid-batch.
  ReserveEpochs(static_cast<std::uint64_t>(targets.size()) + 1);
  const std::uint32_t fwd_epoch = ++epoch_;
  SeedSide(0, fwd_epoch);

  for (std::size_t i = 0; i < targets.size(); ++i) {
    const VertexId t = targets[i];
    if (t == s) {
      (*out)[i] = 0;
      continue;
    }
    LabelView label_t;
    std::uint32_t cut_t = 0;
    ISLABEL_RETURN_IF_ERROR(FetchLabel(1, t, &label_t, &cut_t, nullptr));
    const Eq1Result eq1 = EvaluateEq1(label_s, label_t);
    ExtractSeeds(label_t, cut_t, &seeds_[1]);
    if (seeds_[0].empty() || seeds_[1].empty()) {
      (*out)[i] = eq1.dist;  // An Equation 1 answer (Theorem 3).
      continue;
    }
    const std::uint32_t rev_epoch = ++epoch_;
    SeedSide(1, rev_epoch);
    // Seed-time µ check against the warm forward ball. Forward vertices
    // settled while serving an earlier target did their relax-time µ
    // checks against THAT target's reverse epoch; a shortest path ending
    // at a reverse seed must therefore be counted here (or by a reverse
    // expansion that reaches a forward-stamped vertex) — without this the
    // stop rule can fire early against the inflated forward frontier.
    // Not just pruning: correctness of the warm restart.
    Distance best = disable_mu_pruning_ ? kInfDistance : eq1.dist;
    for (const LabelEntry& e : seeds_[1]) {
      const CoreState& node = state_[e.node];
      if (node.stamp[0] == fwd_epoch) {
        const Distance cand = SatAdd(e.dist, node.dist[0]);
        if (cand < best) best = cand;
      }
    }
    Distance d = SearchLoop(best, fwd_epoch, rev_epoch, /*forward_ball=*/true,
                            nullptr, nullptr);
    if (disable_mu_pruning_ && eq1.dist < d) d = eq1.dist;
    (*out)[i] = d;
  }
  return Status::OK();
}

Distance QueryEngine::SearchLoop(Distance mu, std::uint32_t fwd_epoch,
                                 std::uint32_t rev_epoch, bool forward_ball,
                                 QueryStats* stats, PathCapture* capture) {
  const std::uint32_t ep[2] = {fwd_epoch, rev_epoch};

  auto dist_of = [&](int side, VertexId v) -> Distance {
    const CoreState& node = state_[v];
    return node.stamp[side] == ep[side] ? node.dist[side] : kInfDistance;
  };

  Distance best = mu;
  VertexId meet = kInvalidVertex;
  // Edges each side skipped because they could not beat µ (DESIGN §7.5).
  // The expansion order counts them as frontier entries, as if they had
  // been pushed: none of them would ever be popped.
  std::size_t skipped[2] = {0, 0};

  // Drops stale entries so PeekMin is live (lazy deletion). An entry is
  // live exactly when its key is its vertex's stamped distance.
  auto purge = [&](int side) {
    while (!pq_[side].Empty()) {
      const auto [v, d] = pq_[side].PeekMin();
      if (d == dist_of(side, v)) break;
      pq_[side].PopMin();
    }
  };

  while (true) {
    purge(0);
    purge(1);
    const Distance mins[2] = {
        pq_[0].Empty() ? kInfDistance : pq_[0].PeekMin().second,
        pq_[1].Empty() ? kInfDistance : pq_[1].PeekMin().second};
    // Pruning condition of Algorithm 1 line 8: stop when no s-t path
    // through G_k can beat µ (Theorem 4).
    if (SatAdd(mins[0], mins[1]) >= best) break;

    // Expand the side with fewer frontier entries: the stop rule above is
    // exact in any order.
    const int side = SmallerFrontier(pq_[0].Size() + skipped[0],
                                     pq_[1].Size() + skipped[1]);
    const int opp = 1 - side;
    // The forward ball of a one-to-many batch serves later targets, whose
    // µ is not this one's, so it keeps every push.
    const bool may_drop = side == 1 || !forward_ball;
    const auto [v, d] = pq_[side].PopMin();
    if (stats != nullptr) ++stats->settled;

    // µ tightening. NOTE (deviation from the paper, documented in
    // DESIGN.md): Algorithm 1 lines 17-18 consult only *settled* opposite
    // vertices, which makes the line-8 stop rule tie-order dependent (on
    // the paper's own example the query (c,f) can terminate with 6 instead
    // of 5). The standard remedy — and what Theorem 4's proof actually
    // uses — is to consult the opposite side's *tentative* distance, which
    // is always a valid path length.
    {
      const Distance cand = SatAdd(d, dist_of(opp, v));
      if (cand < best) {
        best = cand;
        meet = v;
      }
    }

    // The forward side relaxes v's arcs v -> u, the reverse side its arcs
    // u -> v (one list for both on an undirected G_k). Lists run in
    // ascending weight (Csr::SortListsByWeight).
    const Csr& arcs = *side_[side].arcs;
    auto nbrs = arcs.Neighbors(v);
    auto ws = arcs.NeighborWeights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Distance nd = d + ws[i];
      if (stats != nullptr) ++stats->relaxed;
      // An entry that cannot beat µ against the opposite frontier is never
      // popped: the stop rule fires first. Every later edge is at least as
      // heavy, so each would push such an entry or not improve its target:
      // leave the list here, touching no record. The candidate paths
      // through the skipped targets are no loss (DESIGN §7.5).
      if (may_drop && SatAdd(nd, mins[opp]) >= best) {
        for (std::size_t j = i; j < nbrs.size(); ++j) {
          const Distance dj = d + ws[j];
          ISLABEL_DCHECK(ws[j] >= ws[i] && SatAdd(dj, mins[opp]) >= best)
              << "edge " << j << " of " << v << "'s list is lighter than "
              << "the edge that stopped the loop";
          ISLABEL_DCHECK(dj >= dist_of(side, nbrs[j]) ||
                         SatAdd(dj, dist_of(opp, nbrs[j])) >= best)
              << "a skipped push would have lowered µ";
        }
        skipped[side] += nbrs.size() - i;
        break;
      }
      const VertexId u = nbrs[i];
      CoreState& node = state_[u];
      Distance du =
          node.stamp[side] == ep[side] ? node.dist[side] : kInfDistance;
      if (nd < du) {
        node.dist[side] = nd;
        node.stamp[side] = ep[side];
        node.parent[side] = v;
        pq_[side].Push(u, nd);
        du = nd;
      }
      // µ tightening (Algorithm 1 lines 17-18, with the tentative-distance
      // fix described above): u reached from both directions closes a
      // candidate s-t path.
      {
        const Distance cand = SatAdd(du, dist_of(opp, u));
        if (cand < best) {
          best = cand;
          meet = u;
        }
      }
    }
  }

  if (capture != nullptr && meet != kInvalidVertex) {
    capture->kind = MeetKind::kSearch;
    capture->meet = h_->core_vertex[meet];
    TraceSide(0, meet, ep[0], seeds_[0].data(), seeds_[0].size(),
              &capture->seed_s, &capture->steps_s);
    TraceSide(1, meet, ep[1], seeds_[1].data(), seeds_[1].size(),
              &capture->seed_t, &capture->steps_t);
  }
  return best;
}

void QueryEngine::TraceSide(int side, VertexId meet, std::uint32_t epoch,
                            const LabelEntry* seeds_begin,
                            std::size_t seeds_count, LabelEntry* seed_out,
                            std::vector<PathStep>* steps_out) const {
  // The walk runs over dense ids; everything written out is global. Every
  // record on the chain is stamped: µ only ever comes from recorded
  // distances (no skipped edge would have lowered it, DESIGN §7.5), and a
  // parent is a settled vertex, whose record no later push rewrites.
  const Csr& arcs = *side_[side].arcs;
  const std::vector<VertexId>& global = h_->core_vertex;
  steps_out->clear();
  VertexId v = meet;
  ISLABEL_DCHECK(state_[v].stamp[side] == epoch) << "meet not stamped";
  while (state_[v].parent[side] != kInvalidVertex) {
    const VertexId p = state_[v].parent[side];
    ISLABEL_DCHECK(state_[p].stamp[side] == epoch) << "parent not stamped";
    // The record keeps no via: read it from the entry v of p's list (the
    // one this side relaxed) whose weight is the distance the relaxation
    // added, so only path queries pay for it.
    const Distance w = state_[v].dist[side] - state_[p].dist[side];
    VertexId via = kInvalidVertex;
    if (arcs.has_vias()) {
      const auto nbrs = arcs.Neighbors(p);
      const auto ws = arcs.NeighborWeights(p);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] == v && ws[i] == w) {
          via = arcs.NeighborVias(p)[i];
          break;
        }
      }
    }
    steps_out->push_back(PathStep{global[p], global[v], via});
    v = p;
  }
  std::reverse(steps_out->begin(), steps_out->end());
  // v is now the chain head — a seeded G_k vertex; find its label entry
  // (the fallback is unreachable if the search is correct).
  const LabelEntry* seeds_end = seeds_begin + seeds_count;
  const LabelEntry* seed = std::find_if(
      seeds_begin, seeds_end, [v](const LabelEntry& e) { return e.node == v; });
  *seed_out = seed != seeds_end ? *seed : LabelEntry(v, state_[v].dist[side]);
  seed_out->node = global[v];
}

}  // namespace islabel
