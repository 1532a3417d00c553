// Build-time configuration for the IS-LABEL index.

#ifndef ISLABEL_CORE_OPTIONS_H_
#define ISLABEL_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace islabel {

/// Order in which Algorithm 2 considers vertices for the independent set.
/// The paper uses min-degree-first (the greedy approximation of maximum
/// independent set [16]); the alternatives exist for the ablation bench.
enum class IsOrder {
  kMinDegree,
  kRandom,
  kMaxDegree,
};

/// Options controlling hierarchy construction and labeling.
struct IndexOptions {
  /// σ of §5.1: stop peeling at the first level i ≥ 2 with
  /// |G_i| / |G_{i-1}| > sigma (|G| = |V| + |E|). The paper's default
  /// threshold is 0.95; Table 7 uses 0.90.
  double sigma = 0.95;

  /// If nonzero, ignore sigma and terminate at exactly this level (the
  /// Table 6 experiment: forced k around the auto-selected one). At k = 1
  /// nothing is peeled, every label is {(v, 0)}, and a query is a
  /// bidirectional Dijkstra on G: the paper's IM-DIJ (Table 8). A value
  /// past the peel's depth (UINT32_MAX, say) peels every level, k = h + 1
  /// and G_k empty: the §4 "full hierarchy", in which Equation 1 answers
  /// every query.
  std::uint32_t forced_k = 0;

  /// Keep per-edge / per-entry intermediate vertices so shortest *paths*
  /// (not just distances) can be reconstructed (§8.1). Costs one extra
  /// VertexId per augmenting edge and label entry. Applies to the
  /// undirected index only: the directed index (§8.2) rebuilds no paths,
  /// and its core keeps no vias.
  bool keep_vias = true;

  /// Vertex consideration order for the independent set (see IsOrder).
  IsOrder is_order = IsOrder::kMinDegree;

  /// Seed for IsOrder::kRandom.
  std::uint64_t seed = 42;

  /// Worker threads for the top-down labeling (level-parallel, Corollary 1;
  /// DESIGN.md "Labeling threading model"). Labels are byte-identical for
  /// every value. 0 = one per hardware thread.
  std::uint32_t num_threads = 1;

  /// If nonzero, run the I/O-efficient construction pipeline (§6) with
  /// this many bytes of working memory, spilling through tmp_dir; the
  /// result is bit-identical to the in-memory pipeline, with I/O counted.
  /// The budget also sizes Algorithm 2's L' exclusion buffer, at
  /// memory_budget_bytes / sizeof(VertexId) vertices (at least one).
  std::uint64_t memory_budget_bytes = 0;

  /// Spill directory for the external pipeline.
  std::string tmp_dir = "/tmp";

  /// Returns OK iff the option combination is valid.
  Status Validate() const;

  /// The level-termination rule of §5.1, shared by the in-memory,
  /// external and directed hierarchy constructions: true iff peeling stops
  /// at level i, where cur_size and prev_size are |G_i| and |G_{i-1}|
  /// (|V| + |E|) and `alive` is |V(G_i)|.
  /// Stops at forced_k when set, otherwise at the first i >= 2 with
  /// cur_size > sigma * prev_size; always stops once G_i is empty, which
  /// ends every peel: a non-empty G_i has a non-empty maximal independent
  /// set.
  bool StopsAtLevel(std::uint32_t i, std::uint64_t cur_size,
                    std::uint64_t prev_size, std::uint64_t alive) const;
};

}  // namespace islabel

#endif  // ISLABEL_CORE_OPTIONS_H_
