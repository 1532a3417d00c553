// ISLABEL_DCHECK: internal invariants, checked in builds without NDEBUG.
// This header only prints a failed check and aborts; leveled diagnostics
// go through the one logger, obs/log.h (the structured event log).

#ifndef ISLABEL_UTIL_LOGGING_H_
#define ISLABEL_UTIL_LOGGING_H_

#include <sstream>

namespace islabel {
namespace internal {

/// Stream-style message builder for a failed check: on destruction it
/// writes "[file:line] Check failed: ..." to stderr and aborts.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line);
  ~CheckFailure();

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  template <typename T>
  CheckFailure& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace islabel

// ISLABEL_DCHECK(cond) << context: an internal invariant. Without NDEBUG a
// false `cond` prints "Check failed: cond context" and aborts. With NDEBUG
// `cond` and the context still compile, so they cannot rot, but are never
// evaluated.
#ifdef NDEBUG
#define ISLABEL_DCHECK(cond) ISLABEL_DCHECK_IMPL(true || (cond), #cond)
#else
#define ISLABEL_DCHECK(cond) ISLABEL_DCHECK_IMPL(cond, #cond)
#endif

#define ISLABEL_DCHECK_IMPL(test, text)                                  \
  if (test) {                                                            \
  } else                                                                 \
    ::islabel::internal::CheckFailure(__FILE__, __LINE__)                \
        << "Check failed: " text " "

#endif  // ISLABEL_UTIL_LOGGING_H_
