#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace islabel {

namespace {

LogLevel LevelFromEnv() {
  const char* env = std::getenv("ISLABEL_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

}  // namespace

LogLevel GetLogLevel() {
  static const LogLevel level = LevelFromEnv();
  return level;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line,
                       bool fatal)
    : level_(level), fatal_(fatal) {
  // Keep only the basename to stay readable.
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelTag(level) << " " << (base ? base + 1 : file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  if (level_ == LogLevel::kError) std::fflush(stderr);
  if (fatal_) std::abort();
}

}  // namespace internal
}  // namespace islabel
