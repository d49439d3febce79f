// Virtual memory areas (VMA): one contiguous region of an address space with uniform
// protection and backing (anonymous / file, private / shared, 4 KiB / 2 MiB pages).
#ifndef ODF_SRC_MM_VMA_H_
#define ODF_SRC_MM_VMA_H_

#include <cstdint>
#include <memory>

#include "src/fs/mem_fs.h"
#include "src/pt/geometry.h"

namespace odf {

enum VmProt : uint32_t {
  kProtNone = 0,
  kProtRead = 1u << 0,
  kProtWrite = 1u << 1,
};

enum class VmaKind {
  kAnonPrivate,  // MAP_PRIVATE | MAP_ANONYMOUS — the paper's primary workload.
  kFilePrivate,  // MAP_PRIVATE file mapping (COW from the page cache).
  kFileShared,   // MAP_SHARED file mapping (writes hit the page cache).
};

struct VmArea {
  Vaddr start = 0;
  Vaddr end = 0;  // Exclusive.
  uint32_t prot = kProtNone;
  VmaKind kind = VmaKind::kAnonPrivate;
  bool huge = false;  // Backed by 2 MiB compound pages mapped at the PMD level.
  std::shared_ptr<MemFile> file;
  uint64_t file_offset = 0;  // Byte offset of `start` within the file; page-aligned.
  // Anon page index of `start` (the vm_pgoff analog for anonymous pages, docs/reclaim.md
  // "Reverse mapping"): set to start >> kPageShift at mmap, advanced by the offset when a
  // VMA splits, and kept when mremap moves the VMA — so the index stamped into an
  // anonymous frame always leads the reverse-map walk back to its mapping.
  uint64_t anon_pgoff = 0;

  uint64_t length() const { return end - start; }
  bool Contains(Vaddr va) const { return va >= start && va < end; }
  bool Overlaps(Vaddr lo, Vaddr hi) const { return start < hi && lo < end; }
  bool IsFileBacked() const { return kind != VmaKind::kAnonPrivate; }
  bool IsWritable() const { return (prot & kProtWrite) != 0; }

  // File page index backing virtual address `va`.
  uint64_t FilePageIndex(Vaddr va) const { return (file_offset + (va - start)) / kPageSize; }

  // Anon page index of virtual address `va` (PageMeta::SetAnonStamp).
  uint64_t AnonIndex(Vaddr va) const { return anon_pgoff + (va - start) / kPageSize; }
};

}  // namespace odf

#endif  // ODF_SRC_MM_VMA_H_
