// Not a violation: src/storage/ is the file layer, so io-seam lets it
// read (0 lines).
#include <unistd.h>

namespace fixture {

long ReadBlock(int fd, char* buf, unsigned long n) {
  return ::pread(fd, buf, n, 0);
}

}  // namespace fixture
