// Minimal leveled stderr logger for index construction progress, plus
// ISLABEL_DCHECK. Serving-path diagnostics go through obs/log.h (the
// structured event log) instead. Defaults to kWarn so bench and test
// output stays machine-parseable.

#ifndef ISLABEL_UTIL_LOGGING_H_
#define ISLABEL_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace islabel {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// Global minimum level; messages below it are dropped. Default: kWarn,
/// overridable with the ISLABEL_LOG environment variable
/// (debug|info|warn|error|off) read on first use.
LogLevel GetLogLevel();

namespace internal {

/// Stream-style message builder; emits to stderr on destruction, then
/// aborts the program when `fatal`.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool fatal_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace islabel

#define ISLABEL_LOG(level)                                          \
  if (::islabel::LogLevel::level < ::islabel::GetLogLevel()) {      \
  } else                                                            \
    ::islabel::internal::LogMessage(::islabel::LogLevel::level,     \
                                    __FILE__, __LINE__)

// ISLABEL_DCHECK(cond) << context: an internal invariant. Without NDEBUG a
// false `cond` logs "Check failed: cond context" and aborts, whatever the
// log level. With NDEBUG `cond` and the context still compile, so they
// cannot rot, but are never evaluated.
#ifdef NDEBUG
#define ISLABEL_DCHECK(cond) ISLABEL_DCHECK_IMPL(true || (cond), #cond)
#else
#define ISLABEL_DCHECK(cond) ISLABEL_DCHECK_IMPL(cond, #cond)
#endif

#define ISLABEL_DCHECK_IMPL(test, text)                              \
  if (test) {                                                        \
  } else                                                             \
    ::islabel::internal::LogMessage(::islabel::LogLevel::kError,     \
                                    __FILE__, __LINE__, true)        \
        << "Check failed: " text " "

#endif  // ISLABEL_UTIL_LOGGING_H_
