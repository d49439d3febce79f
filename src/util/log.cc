#include "src/util/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "src/util/mutex.h"

namespace odf {
namespace {

util::Mutex g_log_mutex;
std::atomic<AbortHook> g_abort_hook{nullptr};

}  // namespace

void LogMessage(LogLevel level, const char* file, int line, const std::string& message) {
  util::MutexLock guard(g_log_mutex);
  std::fprintf(stderr, "[odf %s %s:%d] %s\n", level == LogLevel::kError ? "ERROR" : "WARN",
               file, line, message.c_str());
}

void SetAbortHook(AbortHook hook) { g_abort_hook.store(hook, std::memory_order_release); }

void FatalCheckFailure(const char* file, int line, const char* condition,
                       const std::string& message) {
  {
    util::MutexLock guard(g_log_mutex);
    std::fprintf(stderr, "[odf FATAL %s:%d] check failed: %s%s%s\n", file, line, condition,
                 message.empty() ? "" : " — ", message.c_str());
    std::fflush(stderr);
  }
  // Fire the abort hook exactly once; a failure inside the hook recursing into another
  // ODF_CHECK must fall straight through to abort instead of looping.
  if (AbortHook hook = g_abort_hook.exchange(nullptr, std::memory_order_acq_rel)) {
    hook();
  }
  std::abort();
}

}  // namespace odf
