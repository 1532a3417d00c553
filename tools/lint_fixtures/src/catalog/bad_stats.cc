// Seeded violation: statistics on the serving interface (1 line).
#include <cstdint>

namespace fixture {

// violation: stats-seam — only core/query, core/index and core/directed
// may name the engine's statistics struct
std::uint64_t Serve(std::uint32_t s, std::uint32_t t, QueryStats* stats);

}  // namespace fixture
