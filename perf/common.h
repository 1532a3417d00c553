// Small helpers shared by the benchmark's translation units: the request
// and answer records, the clocks, request hashing, and the one quantile
// definition every metric uses.

#ifndef ISLABEL_PERF_COMMON_H_
#define ISLABEL_PERF_COMMON_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_defs.h"

namespace islabel {
namespace perf {

/// One reported number: `workload name value unit` on stdout, and one
/// entry of the run record.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One request of a workload's stream, before it is formatted as a line.
struct StreamRequest {
  enum class Kind : std::uint8_t { kQuery, kUse };
  Kind kind = Kind::kQuery;
  std::uint8_t dataset = 0;  // catalog dataset index (kUse and kQuery)
  VertexId s = 0;
  VertexId t = 0;
};

/// A query answer kept for verification after timing.
struct Answer {
  std::uint8_t dataset = 0;
  VertexId s = 0;
  VertexId t = 0;
  Distance d = 0;
};

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. The kernel leaves out the time the
/// host hypervisor ran something else on this vCPU (steal time), so rates
/// over it do not swing with the neighbours' load the way wall time does.
inline double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Stateless 64-bit mix (SplitMix64 finalizer): requests are a pure
/// function of (workload, seed, stream, index) through this.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  return Mix(Mix(a) ^ (b + 0x632be59bd9b4e019ULL));
}

/// FNV-1a of a name (workload names key the request streams).
inline std::uint64_t NameHash(const char* name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (; *name != '\0'; ++name) {
    h = (h ^ static_cast<unsigned char>(*name)) * 1099511628211ULL;
  }
  return h;
}

/// The q-quantile as the mean of the samples ranked within
/// q ± 0.1·min(q, 1 − q): the middle tenth for the median, ±0.1 points at
/// p99, and at least one sample. Timings here are whole nanoseconds, so a
/// plain quantile of a tight distribution reads as the same integer run
/// after run; the band keeps the digits the data has and damps a single
/// outlier at the rank. 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double half = 0.1 * std::min(q, 1.0 - q);
  std::size_t lo =
      static_cast<std::size_t>(std::floor(std::max(0.0, q - half) * n));
  std::size_t hi =
      static_cast<std::size_t>(std::ceil(std::min(1.0, q + half) * n));
  lo = std::min(lo, v.size() - 1);
  hi = std::clamp(hi, lo + 1, v.size());
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}
}  // namespace perf
}  // namespace islabel

#endif  // ISLABEL_PERF_COMMON_H_
