// Read-only views of how the host backs this process's memory: the host's transparent
// huge page (THP) mode and this process's smaps_rollup totals. Frame data is advised
// MADV_HUGEPAGE (src/phys/frame_allocator.cc), so whether the simulator runs on host huge
// pages depends on the host's mode; benches record both so a run on a host without THP can
// be told apart. Nothing here writes a host setting.
#ifndef ODF_SRC_UTIL_HOST_MEMORY_H_
#define ODF_SRC_UTIL_HOST_MEMORY_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace odf {

// The selected word of /sys/kernel/mm/transparent_hugepage/enabled ("always", "madvise"
// or "never"), or "unavailable" when the host exposes no THP mode.
std::string HostThpMode();

// The value, in kB, of `field` ("Rss", "AnonHugePages", ...) in /proc/self/smaps_rollup;
// 0 when the file or the field is absent.
uint64_t SelfSmapsRollupKb(std::string_view field);

}  // namespace odf

#endif  // ODF_SRC_UTIL_HOST_MEMORY_H_
