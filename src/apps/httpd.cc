#include "src/apps/httpd.h"

#include <vector>

#include "src/util/log.h"
#include "src/util/stopwatch.h"

namespace odf {

PreforkServer PreforkServer::Start(Kernel& kernel, const HttpdConfig& config) {
  Process& control = kernel.CreateProcess();
  PreforkServer server(&kernel, &control);
  server.config_ = config;

  // The control process's mapped memory: configuration area + in-memory document cache.
  uint64_t doc_bytes = config.document_count * config.document_bytes;
  ODF_CHECK(config.mapped_bytes > doc_bytes + (1 << 20));
  Vaddr config_area = control.Mmap(config.mapped_bytes - doc_bytes, kProtRead | kProtWrite);
  control.address_space().PopulateRange(config_area, config.mapped_bytes - doc_bytes);
  server.documents_base_ = control.Mmap(doc_bytes, kProtRead | kProtWrite);
  std::vector<std::byte> document(config.document_bytes);
  for (uint64_t d = 0; d < config.document_count; ++d) {
    for (uint64_t i = 0; i < document.size(); ++i) {
      document[i] = static_cast<std::byte>(d * 131 + i);
    }
    ODF_CHECK(control.WriteMemory(server.documents_base_ + d * config.document_bytes,
                                  document));
  }
  server.scratch_base_ = control.Mmap(64 * kPageSize, kProtRead | kProtWrite);

  // Pre-fork the worker pool (the MPM prefork model).
  Stopwatch startup;
  for (int w = 0; w < config.worker_count; ++w) {
    server.workers_.push_back(&kernel.Fork(control, config.fork_mode));
  }
  server.startup_fork_micros_ = startup.ElapsedMicros();
  return server;
}

uint64_t PreforkServer::HandleRequest(uint64_t document_id) {
  ODF_CHECK(!shut_down_ && !workers_.empty());
  Process& worker = *workers_[next_worker_];
  next_worker_ = (next_worker_ + 1) % workers_.size();

  document_id %= config_.document_count;
  Vaddr doc = documents_base_ + document_id * config_.document_bytes;

  // "Parse" + serve: read the document through the worker's view, build a response in the
  // worker's scratch memory (first writes COW those pages), checksum it.
  std::vector<std::byte> buffer(config_.document_bytes);
  ODF_CHECK(worker.ReadMemory(doc, buffer));
  uint64_t checksum = 1469598103934665603ULL;
  for (std::byte b : buffer) {
    checksum = (checksum ^ static_cast<uint8_t>(b)) * 1099511628211ULL;
  }
  worker.StoreU64(scratch_base_ + (document_id % 64) * kPageSize, checksum);
  return checksum;
}

void PreforkServer::Shutdown() {
  if (shut_down_) {
    return;
  }
  for (Process* worker : workers_) {
    kernel_->Exit(*worker, 0);
    kernel_->Wait(*control_);
  }
  workers_.clear();
  kernel_->Exit(*control_, 0);
  shut_down_ = true;
}

}  // namespace odf
