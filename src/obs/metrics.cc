#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "util/parallel.h"

namespace islabel {
namespace obs {
namespace {

// Prometheus label values escape backslash, double-quote and newline.
void AppendEscapedLabelValue(std::string* out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

// HELP text escapes backslash and newline only.
void AppendEscapedHelp(std::string* out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendI64(std::string* out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

// `name{a="b",c="d"}` with an optional extra label appended last (the
// histogram `le`). Omits the braces when there are no labels at all.
void AppendSeriesName(std::string* out, const std::string& name,
                      const Labels& labels, const char* extra_key,
                      const std::string& extra_value) {
  out->append(name);
  if (labels.empty() && extra_key == nullptr) return;
  out->push_back('{');
  bool first = true;
  for (const auto& kv : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(kv.first);
    out->append("=\"");
    AppendEscapedLabelValue(out, kv.second);
    out->push_back('"');
  }
  if (extra_key != nullptr) {
    if (!first) out->push_back(',');
    out->append(extra_key);
    out->append("=\"");
    AppendEscapedLabelValue(out, extra_value);
    out->push_back('"');
  }
  out->push_back('}');
}

// Which thread cells are taken, process-wide: a thread's cell index is
// the same in every histogram. Entry i is cell i + 1 (cell 0 is shared).
Mutex g_cells_mu;
std::vector<bool> g_cells_taken GUARDED_BY(g_cells_mu);

}  // namespace

int Histogram::ThreadCells() {
  static const int cells = static_cast<int>(EffectiveThreads(0));
  return cells;
}

Histogram::Histogram()
    : cells_(std::make_unique<Cell[]>(ThreadCells() + 1)) {}

int Histogram::ClaimCell() {
  // Holds the thread's cell until the thread exits. The mutex orders the
  // exiting thread's last stores to its cell before the loads of the
  // next thread to claim the same index.
  struct Lease {
    int index = kSharedCell;  // when no thread cell is free
    Lease() {
      MutexLock lock(&g_cells_mu);
      g_cells_taken.resize(ThreadCells());
      for (int i = 0; i < ThreadCells(); ++i) {
        if (!g_cells_taken[i]) {
          g_cells_taken[i] = true;
          index = i + 1;
          break;
        }
      }
    }
    ~Lease() {
      // Records from later thread-exit destructors go to the shared cell.
      t_cell_ = kSharedCell;
      if (index == kSharedCell) return;
      MutexLock lock(&g_cells_mu);
      g_cells_taken[index - 1] = false;
    }
  };
  thread_local Lease lease;
  t_cell_ = lease.index;
  return t_cell_;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (int i = 0; i <= kNumFiniteBuckets; ++i) total += BucketCount(i);
  return total;
}

std::uint64_t Histogram::SumNanos() const {
  std::uint64_t total = 0;
  for (int c = 0; c <= ThreadCells(); ++c) {
    total += cells_[c].sum_ns.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::BucketCount(int i) const {
  std::uint64_t total = 0;
  for (int c = 0; c <= ThreadCells(); ++c) {
    total += cells_[c].buckets[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::QuantileMicros(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t counts[kNumFiniteBuckets + 1];
  std::uint64_t total = 0;
  for (int i = 0; i <= kNumFiniteBuckets; ++i) {
    counts[i] = BucketCount(i);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (int i = 0; i <= kNumFiniteBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += counts[i];
    if (static_cast<double>(cum) >= target) {
      if (i == kNumFiniteBuckets) {
        // Overflow bucket: report the top finite bound — a floor.
        return static_cast<double>(BucketUpperMicros(kNumFiniteBuckets - 1));
      }
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(BucketUpperMicros(i - 1));
      const double upper = static_cast<double>(BucketUpperMicros(i));
      double frac = (target - prev) / static_cast<double>(counts[i]);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return lower + frac * (upper - lower);
    }
  }
  return static_cast<double>(BucketUpperMicros(kNumFiniteBuckets - 1));
}

MetricRegistry::Family* MetricRegistry::GetFamily(const std::string& name,
                                                  const std::string& help,
                                                  Kind kind) {
  for (auto& f : families_) {
    if (f->name == name) return f->kind == kind ? f.get() : nullptr;
  }
  auto f = std::make_unique<Family>();
  f->name = name;
  f->help = help;
  f->kind = kind;
  families_.push_back(std::move(f));
  return families_.back().get();
}

MetricRegistry::Series* MetricRegistry::GetSeries(Family* family,
                                                  const Labels& labels) {
  for (auto& s : family->series) {
    if (s->labels == labels) return s.get();
  }
  auto s = std::make_unique<Series>();
  s->labels = labels;
  family->series.push_back(std::move(s));
  return family->series.back().get();
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& help,
                                    const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = GetFamily(name, help, Kind::kCounter);
  if (family == nullptr) return &scratch_counter_;
  Series* s = GetSeries(family, labels);
  if (s->counter == nullptr) {
    s->counter = std::make_unique<Counter>();
    s->counter->enabled_ = &enabled_;
  }
  return s->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& help,
                                const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = GetFamily(name, help, Kind::kGauge);
  if (family == nullptr) return &scratch_gauge_;
  Series* s = GetSeries(family, labels);
  if (s->gauge == nullptr) {
    s->gauge = std::make_unique<Gauge>();
    s->gauge->enabled_ = &enabled_;
  }
  return s->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& help,
                                        const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = GetFamily(name, help, Kind::kHistogram);
  if (family == nullptr) return &scratch_histogram_;
  Series* s = GetSeries(family, labels);
  if (s->histogram == nullptr) {
    s->histogram = std::make_unique<Histogram>();
    s->histogram->enabled_ = &enabled_;
  }
  return s->histogram.get();
}

void MetricRegistry::RegisterCallbackGauge(const std::string& name,
                                           const std::string& help,
                                           const Labels& labels,
                                           std::function<double()> fn) {
  MutexLock lock(&mu_);
  Family* family = GetFamily(name, help, Kind::kCallbackGauge);
  if (family == nullptr) return;
  Series* s = GetSeries(family, labels);
  s->callback = std::move(fn);
}

std::string MetricRegistry::RenderPrometheus() const {
  MutexLock lock(&mu_);
  std::string out;
  out.reserve(4096);
  for (const auto& f : families_) {
    out.append("# HELP ");
    out.append(f->name);
    out.push_back(' ');
    AppendEscapedHelp(&out, f->help);
    out.push_back('\n');
    out.append("# TYPE ");
    out.append(f->name);
    switch (f->kind) {
      case Kind::kCounter:
        out.append(" counter\n");
        break;
      case Kind::kGauge:
      case Kind::kCallbackGauge:
        out.append(" gauge\n");
        break;
      case Kind::kHistogram:
        out.append(" histogram\n");
        break;
    }
    for (const auto& s : f->series) {
      switch (f->kind) {
        case Kind::kCounter: {
          AppendSeriesName(&out, f->name, s->labels, nullptr, "");
          out.push_back(' ');
          AppendU64(&out, s->counter->Value());
          out.push_back('\n');
          break;
        }
        case Kind::kGauge: {
          AppendSeriesName(&out, f->name, s->labels, nullptr, "");
          out.push_back(' ');
          AppendI64(&out, s->gauge->Value());
          out.push_back('\n');
          break;
        }
        case Kind::kCallbackGauge: {
          AppendSeriesName(&out, f->name, s->labels, nullptr, "");
          out.push_back(' ');
          AppendDouble(&out, s->callback ? s->callback() : 0.0);
          out.push_back('\n');
          break;
        }
        case Kind::kHistogram: {
          const Histogram& h = *s->histogram;
          // _count is the +Inf bucket of the same pass, so the two agree
          // even while workers record.
          std::uint64_t cum = 0;
          for (int i = 0; i <= Histogram::kNumFiniteBuckets; ++i) {
            cum += h.BucketCount(i);
            std::string le;
            if (i == Histogram::kNumFiniteBuckets) {
              le = "+Inf";
            } else {
              char buf[40];
              std::snprintf(buf, sizeof(buf), "%.9g",
                            static_cast<double>(
                                Histogram::BucketUpperMicros(i)) /
                                1e6);
              le = buf;
            }
            std::string bucket_name = f->name + "_bucket";
            AppendSeriesName(&out, bucket_name, s->labels, "le", le);
            out.push_back(' ');
            AppendU64(&out, cum);
            out.push_back('\n');
          }
          AppendSeriesName(&out, f->name + "_sum", s->labels, nullptr, "");
          out.push_back(' ');
          AppendDouble(&out, static_cast<double>(h.SumNanos()) / 1e9);
          out.push_back('\n');
          AppendSeriesName(&out, f->name + "_count", s->labels, nullptr, "");
          out.push_back(' ');
          AppendU64(&out, cum);
          out.push_back('\n');
          break;
        }
      }
    }
  }
  out.append("# EOF\n");
  return out;
}

std::vector<std::string> MetricRegistry::FamilyNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& f : families_) names.push_back(f->name);
  return names;
}

}  // namespace obs
}  // namespace islabel
