// Minimal logging and fatal-check facility for the odfork library.
//
// The library is a simulator: internal invariant violations are programming errors, not
// recoverable conditions, so ODF_CHECK aborts with a message (mirroring kernel BUG_ON).
#ifndef ODF_SRC_UTIL_LOG_H_
#define ODF_SRC_UTIL_LOG_H_

#include <sstream>
#include <string>

namespace odf {

// Only warnings and errors exist: the threshold is kWarn, fixed, so benchmarks stay quiet.
enum class LogLevel {
  kWarn,
  kError,
};

// Emits a single log line to stderr. Thread-safe.
void LogMessage(LogLevel level, const char* file, int line, const std::string& message);

// Aborts the process after printing the failed condition. Never returns.
[[noreturn]] void FatalCheckFailure(const char* file, int line, const char* condition,
                                    const std::string& message);

// Hook invoked (at most once, after the failure message is printed) before the abort in
// FatalCheckFailure. Lets subsystems flush crash state — e.g. the replay flight recorder
// dumps its black-box log so the aborting schedule can be replayed. The hook must be
// async-signal-unsafe-tolerant in the sense that it runs on the failing thread with
// arbitrary locks possibly held, so it must not touch kernel state; pure buffered I/O only.
using AbortHook = void (*)();
void SetAbortHook(AbortHook hook);

namespace internal {

// Stream-collecting helper so call sites can write ODF_LOG(kWarn) << "x=" << x;
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line) : level_(level), file_(file), line_(line) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

class CheckFailer;

// Swallows the CheckFailer stream so a passing ODF_CHECK is a void expression; `&` binds
// looser than `<<`, so the message chain completes before the conversion applies.
struct CheckVoidify {
  void operator&(const CheckFailer&) const {}
};

class CheckFailer {
 public:
  CheckFailer(const char* file, int line, const char* condition)
      : file_(file), line_(line), condition_(condition) {}
  CheckFailer(const CheckFailer&) = delete;
  CheckFailer& operator=(const CheckFailer&) = delete;
  [[noreturn]] ~CheckFailer() { FatalCheckFailure(file_, line_, condition_, stream_.str()); }

  template <typename T>
  CheckFailer& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* condition_;
  std::ostringstream stream_;
};

}  // namespace internal

#define ODF_LOG(level) ::odf::internal::LogLine(::odf::LogLevel::level, __FILE__, __LINE__)

// Statement-safe (glog-style ternary + voidify): the whole check is a single void
// expression, so `if (x) ODF_CHECK(y); else ...` binds the else to the outer if — the bare
// `if (!(condition)) CheckFailer(...)` form this replaces silently captured it instead.
#define ODF_CHECK(condition)                 \
  (condition) ? (void)0                      \
              : ::odf::internal::CheckVoidify() & \
                    ::odf::internal::CheckFailer(__FILE__, __LINE__, #condition)

#ifdef NDEBUG
#define ODF_DCHECK(condition) ODF_CHECK(true || (condition))
#else
#define ODF_DCHECK(condition) ODF_CHECK(condition)
#endif

}  // namespace odf

#endif  // ODF_SRC_UTIL_LOG_H_
