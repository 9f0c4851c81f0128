// Minimal leveled logging to stderr.
//
// The detector is a streaming system; logging must be cheap when disabled.
// Messages below the global threshold are not formatted at all.

#ifndef SCPRT_COMMON_LOGGING_H_
#define SCPRT_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace scprt {

/// Severity of a log message, least severe first.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Sets the global minimum level that is emitted. Default: kWarning.
void SetLogLevel(LogLevel level);

/// Returns the current global minimum level.
LogLevel GetLogLevel();

namespace internal_log {

/// Emits one formatted record to stderr. Thread-compatible (single writer).
void Emit(LogLevel level, const char* file, int line, const std::string& msg);

/// Stream-style collector used by the SCPRT_LOG macro.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { Emit(level_, file_, line_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal_log
}  // namespace scprt

/// Usage: SCPRT_LOG(kInfo) << "processed " << n << " messages";
#define SCPRT_LOG(severity)                                             \
  if (::scprt::LogLevel::severity < ::scprt::GetLogLevel()) {           \
  } else                                                                \
    ::scprt::internal_log::LogMessage(::scprt::LogLevel::severity,      \
                                      __FILE__, __LINE__)               \
        .stream()

#endif  // SCPRT_COMMON_LOGGING_H_
