// Monotone radix heap for integer keys.
//
// Dijkstra with non-negative integer weights extracts keys in non-decreasing
// order, which a radix heap exploits for amortized O(1) push and O(log C)
// bucket redistribution. Backs the label-seeded bidirectional Dijkstra of
// both query engines (each search side is monotone: every push key is the
// popped key plus a positive edge weight); bench_micro compares it against
// the indexed binary heap.

#ifndef ISLABEL_UTIL_RADIX_HEAP_H_
#define ISLABEL_UTIL_RADIX_HEAP_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace islabel {

/// Monotone priority queue: Push(key) requires key >= last popped key.
/// Duplicate items are allowed (lazy deletion is the caller's concern).
class RadixHeap {
 public:
  RadixHeap() { Clear(); }

  void Clear() {
    for (auto& b : buckets_) b.clear();
    size_ = 0;
    last_ = 0;
  }

  bool Empty() const { return size_ == 0; }
  std::size_t Size() const { return size_; }

  /// Inserts an (item, key) pair; key must be >= the last PopMin key.
  void Push(std::uint32_t item, std::uint64_t key) {
    assert(key >= last_);
    buckets_[BucketFor(key)].push_back(Entry{key, item});
    ++size_;
  }

  /// Removes and returns the entry with the smallest key.
  std::pair<std::uint32_t, std::uint64_t> PopMin() {
    assert(!Empty());
    if (buckets_[0].empty()) Redistribute();
    Entry e = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return {e.item, e.key};
  }

  /// Returns the entry with the smallest key without removing it (the
  /// bi-Dijkstra stop rule needs min(FQ)/min(RQ) every round).
  std::pair<std::uint32_t, std::uint64_t> PeekMin() {
    assert(!Empty());
    if (buckets_[0].empty()) Redistribute();
    const Entry& e = buckets_[0].back();
    return {e.item, e.key};
  }

 private:
  struct Entry {
    std::uint64_t key;
    std::uint32_t item;
  };

  // Bucket i holds keys whose highest differing bit from last_ is i-1;
  // bucket 0 holds keys equal to last_.
  static constexpr int kBuckets = 65;

  int BucketFor(std::uint64_t key) const {
    if (key == last_) return 0;
    return 64 - std::countl_zero(key ^ last_);
  }

  void Redistribute() {
    int i = 1;
    while (buckets_[i].empty()) ++i;
    // New reference point: the minimum of the first non-empty bucket.
    std::uint64_t min_key = std::numeric_limits<std::uint64_t>::max();
    for (const Entry& e : buckets_[i]) min_key = std::min(min_key, e.key);
    last_ = min_key;
    // Every key of bucket i now differs from last_ below bit i - 1, so it
    // moves to a lower bucket. Reading bucket i in place keeps each
    // bucket's own capacity, so a query no larger than one already served
    // allocates nothing here (DESIGN.md §7.2).
    for (const Entry& e : buckets_[i]) {
      const int b = BucketFor(e.key);
      assert(b < i);
      buckets_[b].push_back(e);
    }
    buckets_[i].clear();
  }

  std::vector<Entry> buckets_[kBuckets];
  std::size_t size_;
  std::uint64_t last_;
};

}  // namespace islabel

#endif  // ISLABEL_UTIL_RADIX_HEAP_H_
