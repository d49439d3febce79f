#include "src/phys/per_cpu_cache.h"

#include <algorithm>
#include <vector>

#include "src/debug/lockdep.h"
#include "src/phys/frame_allocator.h"
#include "src/util/mutex.h"

namespace odf {
namespace phys_internal {
namespace {

// One class for the cache registry: it nests INSIDE the pool lock ordering (registry ->
// pool, via thread-exit drains), which lockdep records and enforces.
debug::LockClass g_registry_lock_class("phys_internal::Registry::mu");

// Global registry of live caches, keyed by allocator. Touched only on the rare paths
// (first allocation by a thread, thread exit, allocator destruction); every hot-path
// lookup is served from the thread_local table below without any lock.
struct Registry {
  util::Mutex mu;
  struct AllocatorEntry {
    const FrameAllocator* allocator = nullptr;
    std::vector<PerCpuCache*> caches;
  };
  std::vector<AllocatorEntry> allocators ODF_GUARDED_BY(mu);

  AllocatorEntry* Find(const FrameAllocator* allocator) ODF_REQUIRES(mu) {
    for (AllocatorEntry& entry : allocators) {
      if (entry.allocator == allocator) {
        return &entry;
      }
    }
    return nullptr;
  }
};

// Leaked on purpose (never destroyed): thread-exit destructors of detached threads may run
// arbitrarily late, and a function-local static reference keeps the registry valid for them.
Registry& GlobalRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

// The calling thread's caches, destroyed at thread exit: each live cache drains its frames
// back to the owning allocator's free list and folds its statistics deltas into the
// allocator's totals (pcplists are drained on CPU hot-unplug; thread exit is our analog).
struct ThreadCaches {
  std::vector<PerCpuCache*> entries;

  ~ThreadCaches() {
    Registry& registry = GlobalRegistry();
    debug::MutexGuard guard(registry.mu, g_registry_lock_class);
    for (PerCpuCache* cache : entries) {
      if (cache->owner != nullptr) {
        cache->owner->DrainCacheToPool(*cache);
        Registry::AllocatorEntry* entry = registry.Find(cache->owner);
        if (entry != nullptr) {
          std::erase(entry->caches, cache);
        }
      }
      delete cache;
    }
  }
};

ThreadCaches& TableForThread() {
  thread_local ThreadCaches table;
  return table;
}

}  // namespace

PerCpuCache& CacheForThread(FrameAllocator* allocator, uint64_t allocator_id) {
  ThreadCaches& table = TableForThread();
  // Hot path: small linear scan, no locks. `allocator_id` is never reused, so a stale entry
  // can never match a live allocator.
  for (PerCpuCache* cache : table.entries) {
    if (cache->allocator_id == allocator_id) {
      return *cache;
    }
  }
  auto* cache = new PerCpuCache;
  cache->allocator_id = allocator_id;
  cache->owner = allocator;
  Registry& registry = GlobalRegistry();
  debug::MutexGuard guard(registry.mu, g_registry_lock_class);
  // While here (and holding the lock that guards `owner`), drop entries orphaned by dead
  // allocators so long-lived threads don't accumulate one cache per Kernel ever created.
  std::erase_if(table.entries, [](PerCpuCache* stale) {
    if (stale->owner == nullptr) {
      delete stale;
      return true;
    }
    return false;
  });
  Registry::AllocatorEntry* entry = registry.Find(allocator);
  if (entry == nullptr) {
    registry.allocators.push_back({allocator, {}});
    entry = &registry.allocators.back();
  }
  entry->caches.push_back(cache);
  table.entries.push_back(cache);
  return *cache;
}

void RetireAllocatorCaches(FrameAllocator* allocator) {
  Registry& registry = GlobalRegistry();
  debug::MutexGuard guard(registry.mu, g_registry_lock_class);
  Registry::AllocatorEntry* entry = registry.Find(allocator);
  if (entry == nullptr) {
    return;
  }
  for (PerCpuCache* cache : entry->caches) {
    cache->owner = nullptr;  // The owning thread deletes the husk on its next lookup or exit.
  }
  std::erase_if(registry.allocators, [allocator](const Registry::AllocatorEntry& e) {
    return e.allocator == allocator;
  });
}

void WithCaches(const FrameAllocator* allocator,
                const std::function<void(std::span<PerCpuCache* const>)>& visit) {
  Registry& registry = GlobalRegistry();
  debug::MutexGuard guard(registry.mu, g_registry_lock_class);
  Registry::AllocatorEntry* entry = registry.Find(allocator);
  if (entry == nullptr) {
    visit({});
    return;
  }
  visit(entry->caches);
}

}  // namespace phys_internal
}  // namespace odf
