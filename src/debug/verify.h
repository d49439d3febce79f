// Full-system invariant verifier: the CONFIG_DEBUG_VM counterpart to the per-operation
// ODF_VM_BUG_ON checks. VerifyKernel walks every running process's page tables (via the
// auditor) and then sweeps the ENTIRE PageMeta array, cross-checking the two views:
//
//   * every reference-count invariant the auditor knows (sum of mappings == refcount,
//     pt_share_count matches the sharing topology, swap-slot refcounts);
//   * no leaked frames: a frame flagged allocated must be reachable from some process's
//     paging structures or the page cache;
//   * free frames are inert: refcount == 0, pt_share_count == 0, no flags, and (in
//     debug-vm builds) an intact kPoisonFreed canary;
//   * compound topology: tails point at a live compound head, heads carry the right order.
//
// VerifyKernel itself is ALWAYS compiled — tests and tools may call it in any build. What
// the debug-vm preset adds is the automatic hook: AutoVerifyKernel runs the verifier after
// every top-level fork / exit / zap and compiles to nothing with -DODF_DEBUG_VM=OFF.
//
// Concurrency: the verifier reads all paging structures non-atomically, so it only runs
// when it can prove quiescence. Every kernel mutation executes inside a MutationScope,
// which holds a global shared_mutex in shared mode; AutoVerifyKernel try-locks it
// exclusively and silently skips (counted in VerifyStats) when any other thread is
// mid-mutation. Nested mutations (an OOM kill firing inside a fork's allocation) are
// skipped via a thread-local depth so the verifier never sees half-built state.
#ifndef ODF_SRC_DEBUG_VERIFY_H_
#define ODF_SRC_DEBUG_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/debug/debug.h"
#include "src/debug/mutation.h"

namespace odf {

class Kernel;

namespace debug {

struct VerifyResult {
  std::vector<std::string> violations;
  uint64_t processes_audited = 0;
  uint64_t tables_checked = 0;
  uint64_t leaf_entries_checked = 0;
  uint64_t frames_swept = 0;

  bool ok() const { return violations.empty(); }
  std::string Describe() const;
};

// Runs the full audit + sweep. The kernel must be quiescent (no concurrent mutation);
// callers inside the kernel use AutoVerifyKernel, which proves quiescence first.
VerifyResult VerifyKernel(Kernel& kernel);

struct VerifyStats {
  uint64_t runs = 0;                // Full verifications completed.
  uint64_t skipped_reentrant = 0;   // Hook fired inside another mutation on this thread.
  uint64_t skipped_concurrent = 0;  // Another thread was mid-mutation.
  uint64_t skipped_disabled = 0;    // SetAutoVerify(false).
};

VerifyStats GetVerifyStats();

// Enables/disables the automatic post-mutation hook (default: enabled in debug-vm
// builds). Tests that deliberately corrupt state flip this off while seeding.
void SetAutoVerify(bool enabled);

// MutationScope (the mutator half of the quiescence protocol) lives in
// src/debug/mutation.h so layers below the process tree can use it; this header
// re-exports it for verifier callers.

#if ODF_DEBUG_VM_COMPILED

// Post-mutation hook: verifies the whole kernel and aborts (with the full violation list)
// on the first inconsistency. Skips itself when nested, raced or disabled.
void AutoVerifyKernel(Kernel& kernel, const char* what);

#else  // ODF_DEBUG_VM_COMPILED

inline void AutoVerifyKernel(Kernel& /*kernel*/, const char* /*what*/) {}

#endif  // ODF_DEBUG_VM_COMPILED

}  // namespace debug
}  // namespace odf

#endif  // ODF_SRC_DEBUG_VERIFY_H_
