// odfsh — an interactive shell over the simulated kernel. Drive processes, memory, both fork
// flavours and the procfs views by hand; read commands from stdin (or pipe a script).
//
//   $ ./build/examples/odfsh
//   odfsh> create
//   pid 1
//   odfsh> mmap 1 1073741824
//   0x10000000 (1024 MB)
//   odfsh> populate 1 0x10000000 1073741824
//   odfsh> fork 1 odf
//   pid 2 (on-demand-fork, 0.012 ms)
//   odfsh> status 2
//   pid 2: VmSize 1048576 kB, VmRSS 1048576 kB, Pss 524288 kB, ...
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "src/proc/kernel.h"
#include "src/proc/procfs.h"
#include "src/trace/metrics.h"
#include "src/util/stopwatch.h"

namespace {

odf::Process* RequireProcess(odf::Kernel& kernel, odf::Pid pid) {
  odf::Process* process = kernel.FindProcess(pid);
  if (process == nullptr) {
    std::printf("no such pid %d\n", pid);
    return nullptr;
  }
  if (process->state() != odf::ProcessState::kRunning) {
    std::printf("pid %d is a zombie\n", pid);
    return nullptr;
  }
  return process;
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  create                                new process -> pid\n"
      "  fork <pid> [classic|odf|odfhuge]      fork a process (default: its configured mode)\n"
      "  mode <pid> <classic|odf|odfhuge>      set the per-process fork mode (procfs knob)\n"
      "  exit <pid>                            terminate a process\n"
      "  wait <pid>                            reap one zombie child of <pid>\n"
      "  mmap <pid> <bytes> [huge]             map anonymous memory -> address\n"
      "  munmap <pid> <hex-addr> <bytes>       unmap a range\n"
      "  populate <pid> <hex-addr> <bytes>     pre-fault a range\n"
      "  write <pid> <hex-addr> <text>         write a string into memory\n"
      "  read <pid> <hex-addr> <bytes>         hex-dump memory (max 64 bytes)\n"
      "  fill <pid> <hex-addr> <bytes> <val>   memset a range\n"
      "  smaps <pid>                           /proc/<pid>/smaps analog\n"
      "  status <pid>                          one-line memory summary\n"
      "  ps                                    list processes\n"
      "  stats                                 allocator / swap / fork counters\n"
      "  memlimit <frames>                     cap simulated RAM (0 = unlimited)\n"
      "  help | quit\n");
}

bool ParseMode(const std::string& word, odf::ForkMode* mode) {
  if (word == "classic") {
    *mode = odf::ForkMode::kClassic;
  } else if (word == "odf") {
    *mode = odf::ForkMode::kOnDemand;
  } else if (word == "odfhuge") {
    *mode = odf::ForkMode::kOnDemandHuge;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main() {
  odf::Kernel kernel;
  std::string line;
  bool interactive = true;
  std::printf("odfsh — type 'help' for commands\n");
  while (true) {
    if (interactive) {
      std::printf("odfsh> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) {
      break;
    }
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      continue;
    }

    if (cmd == "quit" || cmd == "q") {
      break;
    } else if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "create") {
      odf::Process& process = kernel.CreateProcess();
      std::printf("pid %d\n", process.pid());
    } else if (cmd == "fork") {
      odf::Pid pid = -1;
      std::string mode_word;
      in >> pid >> mode_word;
      odf::Process* parent = RequireProcess(kernel, pid);
      if (parent == nullptr) {
        continue;
      }
      odf::ForkMode mode = parent->fork_mode();
      if (!mode_word.empty() && !ParseMode(mode_word, &mode)) {
        std::printf("unknown mode '%s'\n", mode_word.c_str());
        continue;
      }
      odf::Stopwatch sw;
      odf::Process& child = kernel.Fork(*parent, mode);
      std::printf("pid %d (%s, %.3f ms)\n", child.pid(), odf::ForkModeName(mode),
                  sw.ElapsedMillis());
    } else if (cmd == "mode") {
      odf::Pid pid = -1;
      std::string mode_word;
      in >> pid >> mode_word;
      odf::Process* process = RequireProcess(kernel, pid);
      odf::ForkMode mode;
      if (process != nullptr && ParseMode(mode_word, &mode)) {
        process->set_fork_mode(mode);
        std::printf("pid %d now forks with %s\n", pid, odf::ForkModeName(mode));
      }
    } else if (cmd == "exit") {
      odf::Pid pid = -1;
      in >> pid;
      odf::Process* process = RequireProcess(kernel, pid);
      if (process != nullptr) {
        kernel.Exit(*process, 0);
        std::printf("pid %d exited\n", pid);
      }
    } else if (cmd == "wait") {
      odf::Pid pid = -1;
      in >> pid;
      odf::Process* process = RequireProcess(kernel, pid);
      if (process != nullptr) {
        odf::Pid reaped = kernel.Wait(*process);
        std::printf(reaped >= 0 ? "reaped pid %d\n" : "no zombie children (%d)\n", reaped);
      }
    } else if (cmd == "mmap") {
      odf::Pid pid = -1;
      uint64_t bytes = 0;
      std::string huge_word;
      in >> pid >> bytes >> huge_word;
      odf::Process* process = RequireProcess(kernel, pid);
      if (process != nullptr && bytes > 0) {
        odf::Vaddr va = process->Mmap(bytes, odf::kProtRead | odf::kProtWrite,
                                      huge_word == "huge");
        std::printf("0x%llx (%llu MB)\n", (unsigned long long)va,
                    (unsigned long long)(bytes >> 20));
      }
    } else if (cmd == "munmap" || cmd == "populate") {
      odf::Pid pid = -1;
      std::string addr_word;
      uint64_t bytes = 0;
      in >> pid >> addr_word >> bytes;
      odf::Process* process = RequireProcess(kernel, pid);
      if (process == nullptr) {
        continue;
      }
      odf::Vaddr va = std::strtoull(addr_word.c_str(), nullptr, 16);
      if (cmd == "munmap") {
        process->Munmap(va, bytes);
        std::printf("unmapped\n");
      } else {
        process->address_space().PopulateRange(va, bytes);
        std::printf("populated %llu pages\n", (unsigned long long)(bytes / odf::kPageSize));
      }
    } else if (cmd == "write") {
      odf::Pid pid = -1;
      std::string addr_word;
      in >> pid >> addr_word;
      std::string text;
      std::getline(in, text);
      if (!text.empty() && text.front() == ' ') {
        text.erase(0, 1);
      }
      odf::Process* process = RequireProcess(kernel, pid);
      if (process != nullptr) {
        odf::Vaddr va = std::strtoull(addr_word.c_str(), nullptr, 16);
        bool ok = process->WriteMemory(
            va, std::as_bytes(std::span(text.data(), text.size() + 1)));
        std::printf(ok ? "wrote %zu bytes\n" : "SEGV\n", text.size() + 1);
      }
    } else if (cmd == "read") {
      odf::Pid pid = -1;
      std::string addr_word;
      uint64_t bytes = 0;
      in >> pid >> addr_word >> bytes;
      odf::Process* process = RequireProcess(kernel, pid);
      if (process != nullptr) {
        bytes = std::min<uint64_t>(bytes, 64);
        odf::Vaddr va = std::strtoull(addr_word.c_str(), nullptr, 16);
        std::vector<std::byte> buffer(bytes);
        if (!process->ReadMemory(va, buffer)) {
          std::printf("SEGV\n");
        } else {
          for (uint64_t i = 0; i < bytes; ++i) {
            std::printf("%02x%s", static_cast<unsigned>(buffer[i]),
                        (i + 1) % 16 == 0 ? "\n" : " ");
          }
          if (bytes % 16 != 0) {
            std::printf("\n");
          }
        }
      }
    } else if (cmd == "fill") {
      odf::Pid pid = -1;
      std::string addr_word;
      uint64_t bytes = 0;
      unsigned value = 0;
      in >> pid >> addr_word >> bytes >> value;
      odf::Process* process = RequireProcess(kernel, pid);
      if (process != nullptr) {
        odf::Vaddr va = std::strtoull(addr_word.c_str(), nullptr, 16);
        bool ok = process->MemsetMemory(va, static_cast<std::byte>(value), bytes);
        std::printf(ok ? "filled\n" : "SEGV\n");
      }
    } else if (cmd == "smaps" || cmd == "status") {
      odf::Pid pid = -1;
      in >> pid;
      odf::Process* process = RequireProcess(kernel, pid);
      if (process != nullptr) {
        odf::ProcessMemoryReport report = odf::BuildMemoryReport(*process);
        std::printf("%s\n", cmd == "smaps" ? odf::FormatSmaps(report).c_str()
                                           : odf::FormatStatusLine(report).c_str());
      }
    } else if (cmd == "ps") {
      std::printf("%zu processes (%zu running)\n", kernel.ProcessCount(),
                  kernel.RunningProcessCount());
    } else if (cmd == "stats") {
      odf::FrameAllocatorStats frames = kernel.allocator().Stats();
      odf::SwapStats swap = kernel.swap_space().Stats();
      std::printf("frames: %llu allocated (%llu tables), %llu MB materialised\n",
                  (unsigned long long)frames.allocated_frames,
                  (unsigned long long)frames.page_table_frames,
                  (unsigned long long)(frames.materialized_bytes >> 20));
      std::printf("swap:   %llu slots in use, %llu writes, %llu reads\n",
                  (unsigned long long)swap.slots_in_use, (unsigned long long)swap.writes,
                  (unsigned long long)swap.reads);
      std::printf("forks:  %llu classic (%llu PTEs copied), %llu on-demand (%llu+%llu tables"
                  " shared), %llu OOM kills\n",
                  (unsigned long long)odf::ReadVm(odf::VmCounter::k_fork_classic),
                  (unsigned long long)odf::ReadVm(odf::VmCounter::k_fork_pte_entries_copied),
                  (unsigned long long)odf::ReadVm(odf::VmCounter::k_fork_on_demand),
                  (unsigned long long)odf::ReadVm(odf::VmCounter::k_pte_tables_shared),
                  (unsigned long long)odf::ReadVm(odf::VmCounter::k_pmd_tables_shared),
                  (unsigned long long)kernel.oom_kills());
    } else if (cmd == "memlimit") {
      uint64_t frames = 0;
      in >> frames;
      kernel.SetMemoryLimitFrames(frames);
      std::printf("simulated RAM capped at %llu frames (%llu MB)\n",
                  (unsigned long long)frames, (unsigned long long)(frames * 4 / 1024));
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  return 0;
}
