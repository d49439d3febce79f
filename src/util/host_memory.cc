#include "src/util/host_memory.h"

#include <fstream>
#include <sstream>

namespace odf {

std::string HostThpMode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) {
    return "unavailable";
  }
  // The file lists every mode and brackets the selected one: "always [madvise] never".
  size_t open = line.find('[');
  size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) {
    return "unavailable";
  }
  return line.substr(open + 1, close - open - 1);
}

uint64_t SelfSmapsRollupKb(std::string_view field) {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    // Lines read "AnonHugePages:    413696 kB".
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      std::istringstream value(line.substr(field.size() + 1));
      uint64_t kb = 0;
      value >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace odf
