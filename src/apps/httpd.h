// PreforkServer: an Apache-prefork-style server (§5.3.5) — the paper's "no benefit" case.
//
// A control process with a small footprint (≈7 MB mapped, like Apache before forking) spawns
// worker processes via fork at startup; requests are then handled by long-lived workers, so
// fork cost is off the request path and on-demand-fork is expected to make no measurable
// difference. Reproducing a negative result keeps the harness honest.
#ifndef ODF_SRC_APPS_HTTPD_H_
#define ODF_SRC_APPS_HTTPD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/proc/kernel.h"
#include "src/util/rng.h"

namespace odf {

struct HttpdConfig {
  uint64_t mapped_bytes = 7ULL << 20;  // Apache maps ~7 MB of virtual memory before forking.
  uint64_t document_count = 64;
  uint64_t document_bytes = 16 << 10;
  int worker_count = 8;
  ForkMode fork_mode = ForkMode::kClassic;
};

class PreforkServer {
 public:
  // Builds the control process (config + document cache in memory) and pre-forks workers.
  static PreforkServer Start(Kernel& kernel, const HttpdConfig& config);

  // Handles one request on the next worker (round-robin): parse a request line, read the
  // document from the worker's COW view, write a response scratch buffer. Returns the
  // response checksum (so the work is not optimized away).
  uint64_t HandleRequest(uint64_t document_id);

  // Time from Start() until all workers were forked (startup latency, fork-dependent).
  double startup_fork_micros() const { return startup_fork_micros_; }

  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Stops all workers and the control process.
  void Shutdown();

 private:
  PreforkServer(Kernel* kernel, Process* control) : kernel_(kernel), control_(control) {}

  Kernel* kernel_;
  Process* control_;
  std::vector<Process*> workers_;
  HttpdConfig config_;
  Vaddr documents_base_ = 0;
  Vaddr scratch_base_ = 0;
  size_t next_worker_ = 0;
  double startup_fork_micros_ = 0;
  bool shut_down_ = false;
};

}  // namespace odf

#endif  // ODF_SRC_APPS_HTTPD_H_
