// Seeded violation: a request-path timer off the trace seam (1 line).
#include <cstdint>

namespace fixture {

std::uint64_t TimedLookup(const Clock* clock) {
  // violation: trace-seam — core/ times request stages through
  // obs/trace.h, never by reading the clock itself
  return clock->NowNanos();
}

}  // namespace fixture
