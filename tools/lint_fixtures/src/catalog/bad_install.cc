// Seeded violation: a second install path (1 line). The first
// SetGeneration call is the one routine that publishes; the member's
// definition and the mentions in comments do not count.
#include <cstdint>

namespace fixture {

struct Dataset {
  void SetGeneration(std::uint64_t gen) { generation = gen; }
  std::uint64_t generation = 0;
};

void Publish(Dataset* ds, std::uint64_t gen) { ds->SetGeneration(gen); }

// violation: catalog-install — a reload that publishes by itself
void Reload(Dataset* ds) { ds->SetGeneration(ds->generation + 1); }

}  // namespace fixture
