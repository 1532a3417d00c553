// Seeded violations: file bytes read outside src/storage/ (2 lines).
#include <cstdio>
#include <fstream>

namespace fixture {

void Slurp(const char* path) {
  std::FILE* f = std::fopen(path, "rb");  // violation: io-seam
  std::ifstream in(path);                 // violation: io-seam
}

}  // namespace fixture
