#include "src/debug/debug.h"

#include <sstream>

namespace odf {
namespace debug {

namespace internal {

#if ODF_DEBUG_VM_COMPILED
std::atomic<uint64_t> g_vm_checks{0};
std::atomic<uint64_t> g_poison_checks{0};
std::atomic<uint64_t> g_poison_writes{0};
#endif

std::string DescribePage(const PageMeta& meta, FrameId frame) {
  std::ostringstream out;
  out << "page[frame=" << frame << " refcount=" << meta.refcount.load(std::memory_order_relaxed)
      << " pt_share=" << meta.pt_share_count.load(std::memory_order_relaxed) << " flags=0x"
      << std::hex << static_cast<unsigned>(meta.flags) << " reserved=0x"
      << static_cast<unsigned>(meta.reserved) << std::dec
      << " order=" << static_cast<unsigned>(meta.order);
  if (meta.compound_head == kInvalidFrame) {
    out << " head=invalid";
  } else {
    out << " head=" << meta.compound_head;
  }
  out << (meta.materialized.load(std::memory_order_relaxed) != 0 ? " data" : " nodata") << "]";
  return out.str();
}

}  // namespace internal

CheckStats GetCheckStats() {
  CheckStats stats;
#if ODF_DEBUG_VM_COMPILED
  stats.vm_checks = internal::g_vm_checks.load(std::memory_order_relaxed);
  stats.poison_checks = internal::g_poison_checks.load(std::memory_order_relaxed);
  stats.poison_writes = internal::g_poison_writes.load(std::memory_order_relaxed);
#endif
  return stats;
}

}  // namespace debug
}  // namespace odf
