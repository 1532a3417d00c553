#include "core/path.h"

#include <algorithm>

#include "core/index.h"

namespace islabel {

namespace {

// Expansion splits a segment into two strictly shorter ones, so depth is
// bounded by the hop count of the final path; 4096 is far beyond any
// realistic query and guards against a corrupted index looping forever.
constexpr int kMaxDepth = 4096;

}  // namespace

Status PathReconstructor::Reconstruct(VertexId s, VertexId t,
                                      const PathCapture& capture,
                                      std::vector<VertexId>* out) {
  out->clear();
  if (capture.kind == MeetKind::kNone || capture.dist == kInfDistance) {
    return Status::OK();  // unreachable: empty path by contract
  }
  out->push_back(s);
  if (s == t) return Status::OK();
  return EmitCapture(s, t, capture, 0, out);
}

Status PathReconstructor::EmitCapture(VertexId a, VertexId b,
                                      const PathCapture& capture, int depth,
                                      std::vector<VertexId>* out) {
  if (capture.kind == MeetKind::kEq1) {
    // a → w, then w → b (the reverse expansion of b → w).
    ISLABEL_RETURN_IF_ERROR(EmitEntry(a, capture.eq1_s, depth, out));
    std::vector<VertexId> tail{b};
    ISLABEL_RETURN_IF_ERROR(EmitEntry(b, capture.eq1_t, depth, &tail));
    // tail = b ... w; append reversed, skipping the shared w.
    for (std::size_t i = tail.size() - 1; i-- > 0;) out->push_back(tail[i]);
    return Status::OK();
  }

  // kSearch: a → seed_s.node → (G_k tree edges) → meet → ... → seed_t.node
  // → b, with every augmenting G_k edge expanded through its via vertex.
  ISLABEL_RETURN_IF_ERROR(EmitEntry(a, capture.seed_s, depth, out));
  for (const PathStep& step : capture.steps_s) {
    if (out->back() != step.from) {
      return Status::Internal("forward chain discontinuity");
    }
    ISLABEL_RETURN_IF_ERROR(
        EmitSegment(step.from, step.to, step.via, depth, out));
  }
  // Build the b-side walk b → seed → meet, then splice it on reversed.
  std::vector<VertexId> tail{b};
  ISLABEL_RETURN_IF_ERROR(EmitEntry(b, capture.seed_t, depth, &tail));
  for (const PathStep& step : capture.steps_t) {
    if (tail.back() != step.from) {
      return Status::Internal("reverse chain discontinuity");
    }
    ISLABEL_RETURN_IF_ERROR(
        EmitSegment(step.from, step.to, step.via, depth, &tail));
  }
  if (out->back() != capture.meet || tail.back() != capture.meet) {
    return Status::Internal("search chains do not meet");
  }
  for (std::size_t i = tail.size() - 1; i-- > 0;) out->push_back(tail[i]);
  return Status::OK();
}

Status PathReconstructor::EmitEntry(VertexId a, const LabelEntry& entry,
                                    int depth,
                                    std::vector<VertexId>* out) {
  if (depth > kMaxDepth) return Status::Internal("path expansion too deep");
  if (entry.node == a) return Status::OK();  // trivial self entry
  return EmitSegment(a, entry.node, entry.via, depth, out);
}

Status PathReconstructor::EmitSegment(VertexId a, VertexId b, VertexId via,
                                      int depth,
                                      std::vector<VertexId>* out) {
  if (depth > kMaxDepth) return Status::Internal("path expansion too deep");
  if (via == kInvalidVertex) {
    // Original edge of G.
    out->push_back(b);
    return Status::OK();
  }
  ISLABEL_RETURN_IF_ERROR(EmitQuery(a, via, depth + 1, out));
  ISLABEL_RETURN_IF_ERROR(EmitQuery(via, b, depth + 1, out));
  return Status::OK();
}

Status PathReconstructor::EmitQuery(VertexId a, VertexId b, int depth,
                                    std::vector<VertexId>* out) {
  if (depth > kMaxDepth) return Status::Internal("path expansion too deep");
  PathCapture capture;
  ISLABEL_RETURN_IF_ERROR(engine_->DistanceWithCapture(a, b, &capture));
  if (capture.dist == kInfDistance) {
    return Status::Internal("sub-path query unreachable; index corrupted?");
  }
  return EmitCapture(a, b, capture, depth + 1, out);
}

Status ISLabelIndex::ShortestPath(VertexId s, VertexId t,
                                  std::vector<VertexId>* path,
                                  Distance* dist) {
  ISLABEL_RETURN_IF_ERROR(CheckQueryable(s, t));
  if (!vias_enabled_) {
    return Status::FailedPrecondition(
        "index was built without vias (IndexOptions::keep_vias)");
  }
  QueryEnginePool::Lease lease = pool_->Acquire();
  PathCapture capture;
  ISLABEL_RETURN_IF_ERROR(lease->DistanceWithCapture(s, t, &capture));
  *dist = capture.dist;
  PathReconstructor reconstructor(lease.get());
  return reconstructor.Reconstruct(s, t, capture, path);
}

}  // namespace islabel
