// Fundamental graph value types shared by every subsystem.
//
// Following the paper (§2): graphs are simple, weighted, undirected (a
// directed variant exists in graph/digraph.h for §8.2), with positive
// integer edge weights. Vertex ids are dense 32-bit integers — the paper's
// largest graph (BTC, 164.7M vertices) fits comfortably — and distances are
// 64-bit to make overflow impossible even on pathological weight
// assignments (2^32 vertices × 2^32 max weight < 2^64).

#ifndef ISLABEL_GRAPH_GRAPH_DEFS_H_
#define ISLABEL_GRAPH_GRAPH_DEFS_H_

#include <cstdint>
#include <limits>

namespace islabel {

/// Dense vertex identifier in [0, NumVertices).
using VertexId = std::uint32_t;

/// Positive integer edge weight (ω : E → N+).
using Weight = std::uint32_t;

/// Path length / distance. kInfDistance means "unreachable".
using Distance = std::uint64_t;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();
inline constexpr Distance kInfDistance =
    std::numeric_limits<Distance>::max();

/// Saturating add treating kInfDistance as +infinity.
inline constexpr Distance SatAdd(Distance a, Distance b) {
  if (a == kInfDistance || b == kInfDistance) return kInfDistance;
  if (a > kInfDistance - b) return kInfDistance;
  return a + b;
}

/// A weighted undirected edge as stored in edge lists. `via` records the
/// intermediate vertex when the edge is an *augmenting edge* created by the
/// hierarchy construction (§4.1 / §8.1): weight(u,w) = weight(u,via) +
/// weight(via,w). Original graph edges carry via == kInvalidVertex.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  Weight w = 1;
  VertexId via = kInvalidVertex;

  Edge() = default;
  Edge(VertexId uu, VertexId vv, Weight ww, VertexId via_v = kInvalidVertex)
      : u(uu), v(vv), w(ww), via(via_v) {}

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v && a.w == b.w && a.via == b.via;
  }
};

/// A weighted directed arc from -> to: the input of a DiGraph and of a CSR
/// fill (graph/csr.h), where an undirected edge is its two arcs. `via` is
/// as for Edge.
struct Arc {
  VertexId from = 0;
  VertexId to = 0;
  Weight w = 1;
  VertexId via = kInvalidVertex;

  Arc() = default;
  Arc(VertexId f, VertexId t, Weight ww, VertexId via_v = kInvalidVertex)
      : from(f), to(t), w(ww), via(via_v) {}
};

}  // namespace islabel

#endif  // ISLABEL_GRAPH_GRAPH_DEFS_H_
