#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace islabel {
namespace internal {

CheckFailure::CheckFailure(const char* file, int line) {
  // Keep only the basename to stay readable.
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << (base ? base + 1 : file) << ":" << line << "] ";
}

CheckFailure::~CheckFailure() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal
}  // namespace islabel
