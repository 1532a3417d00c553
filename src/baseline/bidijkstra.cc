#include "baseline/bidijkstra.h"

#include <queue>
#include <utility>

namespace islabel {

void BidirectionalDijkstra::EnsureScratch() {
  const std::size_t n = g_->NumVertices();
  for (Side& s : sides_) {
    if (s.dist.size() != n) {
      s.dist.assign(n, kInfDistance);
      s.stamp.assign(n, 0);
      s.settled_stamp.assign(n, 0);
    }
  }
}

Distance BidirectionalDijkstra::Query(VertexId s, VertexId t,
                                      std::uint64_t* settled) {
  if (s == t) return 0;
  EnsureScratch();
  ++epoch_;
  const std::uint32_t epoch = epoch_;

  auto dist_of = [&](int side, VertexId v) -> Distance {
    return sides_[side].stamp[v] == epoch ? sides_[side].dist[v]
                                          : kInfDistance;
  };
  auto is_settled = [&](int side, VertexId v) {
    return sides_[side].settled_stamp[v] == epoch;
  };

  using PqEntry = std::pair<Distance, VertexId>;
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<PqEntry>>
      pq[2];
  sides_[0].dist[s] = 0;
  sides_[0].stamp[s] = epoch;
  pq[0].push({0, s});
  sides_[1].dist[t] = 0;
  sides_[1].stamp[t] = epoch;
  pq[1].push({0, t});

  Distance best = kInfDistance;
  std::uint64_t count = 0;

  auto purge = [&](int side) {
    while (!pq[side].empty()) {
      const auto& [d, v] = pq[side].top();
      if (is_settled(side, v) || d != dist_of(side, v)) {
        pq[side].pop();
      } else {
        break;
      }
    }
  };

  while (true) {
    purge(0);
    purge(1);
    const Distance mf = pq[0].empty() ? kInfDistance : pq[0].top().first;
    const Distance mr = pq[1].empty() ? kInfDistance : pq[1].top().first;
    if (SatAdd(mf, mr) >= best) break;
    const int side = (mf <= mr) ? 0 : 1;
    const int opp = 1 - side;
    const auto [d, v] = pq[side].top();
    pq[side].pop();
    sides_[side].settled_stamp[v] = epoch;
    ++count;
    // Tentative-distance µ update (sound: tentative values are realizable
    // path lengths; required for the min_f+min_r stop rule to be exact).
    best = std::min(best, SatAdd(dist_of(0, v), dist_of(1, v)));
    auto nbrs = g_->Neighbors(v);
    auto ws = g_->NeighborWeights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      const Distance nd = d + ws[i];
      if (nd < dist_of(side, u)) {
        sides_[side].dist[u] = nd;
        sides_[side].stamp[u] = epoch;
        pq[side].push({nd, u});
      }
      best = std::min(best, SatAdd(dist_of(side, u), dist_of(opp, u)));
    }
  }
  if (settled != nullptr) *settled = count;
  return best;
}

}  // namespace islabel
