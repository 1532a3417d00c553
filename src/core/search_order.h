// The expansion order of the label-seeded bidirectional Dijkstra on G_k
// (Algorithm 1, stage 2), shared by both IS-LABEL search loops:
// QueryEngine::SearchLoop (pair, path and one-to-many queries) and
// DirectedISLabel::BiDijkstra (§8.2).
//
// Each round expands the side whose frontier holds fewer entries (Pohl's
// cardinality rule), not the side whose heap minimum, its radius, is
// smaller. The two sides' seeds start at different label distances — a
// core endpoint seeds at 0, a below-core one at its label depth — and the
// radius rule lets the near side flood G_k until its radius catches up.
// The order never changes an answer: µ is tightened against the opposite
// side's tentative distance at every settle and at every relaxation that
// records a distance, and against the warm forward ball when a
// one-to-many target is seeded, so the stop rule min(FQ) + min(RQ) >= µ
// is exact whichever side runs (DESIGN §7.4, §7.5).

#ifndef ISLABEL_CORE_SEARCH_ORDER_H_
#define ISLABEL_CORE_SEARCH_ORDER_H_

#include <cstddef>

namespace islabel {

/// The side to expand next, 0 (forward) or 1 (reverse): the one whose
/// frontier holds fewer entries; ties go forward. A frontier's size is its
/// heap's entry count, lazily deleted entries included, plus, in
/// QueryEngine::SearchLoop, the pushes it dropped because they could not
/// beat µ (DESIGN §7.5): counting those keeps the order of the unpruned
/// search. The loops check the stop rule first, and an empty heap's
/// minimum is ∞, so an exhausted side is never chosen.
inline int SmallerFrontier(std::size_t forward, std::size_t reverse) {
  return forward <= reverse ? 0 : 1;
}

}  // namespace islabel

#endif  // ISLABEL_CORE_SEARCH_ORDER_H_
