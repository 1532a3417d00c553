// ExternalSorter: sort more records than fit in the memory budget.
//
// This is the sort(N) primitive of the paper's I/O analysis (§6): run
// generation (fill a memory buffer, sort, spill) followed by a k-way merge.
// Algorithm 2 uses it to order adjacency lists by degree; Algorithm 3 uses
// it to sort the augmenting-edge array EA by vertex ids.
//
// Records must be trivially copyable; the comparator is a template
// parameter so keys need not be materialized.

#ifndef ISLABEL_STORAGE_EXTERNAL_SORTER_H_
#define ISLABEL_STORAGE_EXTERNAL_SORTER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/block_file.h"
#include "storage/record_stream.h"
#include "util/status.h"

namespace islabel {

template <typename Record, typename Less = std::less<Record>>
class ExternalSorter {
  static_assert(std::is_trivially_copyable_v<Record>,
                "ExternalSorter requires trivially copyable records");

 public:
  /// `memory_budget_bytes` bounds the in-memory run buffer (M in the I/O
  /// model). `tmp_dir` receives spill runs; pass "" to sort purely in
  /// memory regardless of budget (used by tests and small graphs).
  ExternalSorter(std::string tmp_dir, std::size_t memory_budget_bytes,
                 Less less = Less())
      : max_buffer_records_(
            tmp_dir.empty() ? SIZE_MAX
                            : std::max<std::size_t>(
                                  16, memory_budget_bytes / sizeof(Record))),
        less_(less),
        temps_(std::move(tmp_dir)) {}

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Adds one record; may spill a sorted run.
  Status Add(const Record& r) {
    buffer_.push_back(r);
    if (buffer_.size() >= max_buffer_records_) return SpillRun();
    return Status::OK();
  }

  /// Finalizes input and prepares the merge.
  Status Finish() {
    if (runs_.empty()) {
      // Pure in-memory path.
      std::sort(buffer_.begin(), buffer_.end(), less_);
      return Status::OK();
    }
    ISLABEL_RETURN_IF_ERROR(SpillRun());
    for (auto& run : runs_) {
      run->reader.emplace(&run->file);
      if (run->reader->Next(&run->current)) heap_.push_back(run.get());
      ISLABEL_RETURN_IF_ERROR(run->reader->status());
    }
    std::make_heap(heap_.begin(), heap_.end(), HeapGreater{this});
    return Status::OK();
  }

  /// Pops the next record in sorted order. False at the end, or once a
  /// run fails to read — status() tells which. Must be called only after
  /// Finish() succeeded.
  bool Next(Record* out) {
    if (runs_.empty()) {
      if (mem_pos_ >= buffer_.size()) return false;
      *out = buffer_[mem_pos_++];
      return true;
    }
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater{this});
    Run* run = heap_.back();
    *out = run->current;
    if (run->reader->Next(&run->current)) {
      std::push_heap(heap_.begin(), heap_.end(), HeapGreater{this});
    } else if (run->reader->status().ok()) {
      heap_.pop_back();
    } else {
      status_ = run->reader->status();
      heap_.clear();
    }
    return true;
  }

  /// OK unless a spill run failed to read during the merge.
  const Status& status() const { return status_; }

  /// Total I/O performed by spill runs and the merge.
  IoStats stats() const {
    IoStats s;
    for (const auto& run : runs_) s += run->file.stats();
    return s;
  }

  std::uint64_t num_runs() const { return runs_.size(); }

 private:
  struct Run {
    BlockFile file;
    std::optional<RecordReader> reader;  // made by Finish()
    Record current{};
  };

  struct HeapGreater {
    ExternalSorter* self;
    // std heap functions build a max-heap; invert to get min-heap.
    bool operator()(const Run* a, const Run* b) const {
      return self->less_(b->current, a->current);
    }
  };

  Status SpillRun() {
    if (buffer_.empty()) return Status::OK();
    std::sort(buffer_.begin(), buffer_.end(), less_);
    auto run = std::make_unique<Run>();
    ISLABEL_RETURN_IF_ERROR(
        run->file.Open(temps_.Fresh("sort_run"), /*truncate=*/true));
    ISLABEL_RETURN_IF_ERROR(run->file.Append(
        buffer_.data(), buffer_.size() * sizeof(Record), nullptr));
    runs_.push_back(std::move(run));
    buffer_.clear();
    return Status::OK();
  }

  std::size_t max_buffer_records_;
  Less less_;
  TempFiles temps_;
  std::vector<Record> buffer_;
  std::size_t mem_pos_ = 0;
  std::vector<std::unique_ptr<Run>> runs_;
  std::vector<Run*> heap_;
  Status status_;
};

}  // namespace islabel

#endif  // ISLABEL_STORAGE_EXTERNAL_SORTER_H_
