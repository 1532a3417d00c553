// Seeded violation: a second pool (1 line). The struct below keeps its
// own lock and free list beside EnginePool<T>; the forward declaration
// and the mentions in comments do not count.
#include <memory>
#include <vector>

namespace fixture {

struct Scratch {};
class LegacyPool;

// violation: one-pool — a pool declared outside core/engine_pool.h
struct ScratchPool {
  std::vector<std::unique_ptr<Scratch>> free_list;
};

}  // namespace fixture
