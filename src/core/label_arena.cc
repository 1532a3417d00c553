#include "core/label_arena.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace islabel {

LabelArena::LabelArena(std::vector<LabelEntry> slab,
                       std::vector<std::uint64_t> offsets)
    : slab_(std::move(slab)), offsets_(std::move(offsets)) {
  assert(!offsets_.empty() && offsets_.front() == 0 &&
         offsets_.back() == slab_.size());
  arena_n_ = static_cast<VertexId>(offsets_.size() - 1);
  n_ = arena_n_;
}

void LabelArena::ComputeSeedCuts(const std::vector<std::uint32_t>& level,
                                 std::uint32_t k) {
  seed_cut_.assign(arena_n_, 0);
  for (VertexId v = 0; v < arena_n_; ++v) {
    const LabelEntry* entries = slab_.data() + offsets_[v];
    const std::uint32_t len =
        static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
    std::uint32_t cut = len;
    for (std::uint32_t i = 0; i < len; ++i) {
      if (level[entries[i].node] == k) {
        cut = i;
        break;
      }
    }
    seed_cut_[v] = cut;
  }
}

std::uint64_t LabelArena::TotalEntries() const {
  std::uint64_t total = slab_.size();
  for (const auto& [v, label] : overlay_) {
    if (v < arena_n_) total -= offsets_[v + 1] - offsets_[v];
    total += label.size();
  }
  return total;
}

std::vector<LabelEntry>* LabelArena::Patch(VertexId v) {
  auto [it, inserted] = overlay_.try_emplace(v);
  if (inserted && v < arena_n_) {
    it->second.assign(slab_.data() + offsets_[v],
                      slab_.data() + offsets_[v + 1]);
  }
  if (v < arena_n_) {
    if (patched_.size() != arena_n_) patched_.Resize(arena_n_);
    patched_.Set(v);
  }
  return &it->second;
}

void LabelArena::AppendLabel(VertexId v, std::vector<LabelEntry> label) {
  assert(v == n_);
  overlay_[v] = std::move(label);
  ++n_;
}

void LabelArena::UpsertEntry(VertexId v, const LabelEntry& entry) {
  // Read-only probe first: an entry that is already at least as good leaves
  // the slab untouched.
  const LabelView view = View(v);
  auto pos = std::lower_bound(
      view.begin(), view.end(), entry.node,
      [](const LabelEntry& e, VertexId n) { return e.node < n; });
  if (pos != view.end() && pos->node == entry.node &&
      pos->dist <= entry.dist) {
    return;
  }
  std::vector<LabelEntry>* label = Patch(v);
  auto it = std::lower_bound(
      label->begin(), label->end(), entry.node,
      [](const LabelEntry& e, VertexId n) { return e.node < n; });
  if (it != label->end() && it->node == entry.node) {
    *it = entry;
  } else {
    label->insert(it, entry);
  }
}

bool LabelArena::EraseEntry(VertexId v, VertexId node) {
  const LabelView view = View(v);
  auto pos = std::lower_bound(
      view.begin(), view.end(), node,
      [](const LabelEntry& e, VertexId n) { return e.node < n; });
  if (pos == view.end() || pos->node != node) return false;
  std::vector<LabelEntry>* label = Patch(v);
  label->erase(label->begin() + (pos - view.begin()));
  return true;
}

void LabelArena::ClearLabel(VertexId v) { Patch(v)->clear(); }

bool operator==(const LabelArena& a, const LabelArena& b) {
  if (!a.overlay_.empty() || !b.overlay_.empty()) return false;
  if (a.offsets_ != b.offsets_) return false;
  if (a.slab_.size() != b.slab_.size()) return false;
  for (std::size_t i = 0; i < a.slab_.size(); ++i) {
    if (!(a.slab_[i] == b.slab_[i])) return false;
  }
  return true;
}

}  // namespace islabel
