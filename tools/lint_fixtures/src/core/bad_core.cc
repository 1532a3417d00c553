// Seeded violation: G_k installed outside SetCore (1 line). The reads and
// the comparison below do not count, nor do the mentions in comments
// (g_k = core).
#include <cstdint>
#include <utility>
#include <vector>

namespace fixture {

struct Hierarchy {
  std::vector<std::uint32_t> g_k;
  std::vector<std::uint32_t> landmarks;
};

bool SameCore(const Hierarchy& a, const Hierarchy& b) {
  return a.g_k == b.g_k && a.landmarks.size() == b.landmarks.size();
}

// violation: core-install — a G_k swapped in without its landmark table
void Install(Hierarchy* h, std::vector<std::uint32_t> core) {
  h->g_k = std::move(core);
}

}  // namespace fixture
