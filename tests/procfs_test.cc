// procfs-style introspection: RSS/PSS/swap accounting and the page-table footprint that
// demonstrates on-demand-fork's memory efficiency.
#include <gtest/gtest.h>

#include "src/debug/debug.h"
#include "src/proc/procfs.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class ProcfsTest : public ::testing::Test {
 protected:
  ProcfsTest() : p_(kernel_.CreateProcess()) {}

  Kernel kernel_;
  Process& p_;
};

TEST_F(ProcfsTest, EmptyProcess) {
  ProcessMemoryReport report = BuildMemoryReport(p_);
  EXPECT_EQ(report.vss_bytes, 0u);
  EXPECT_EQ(report.rss_bytes, 0u);
  EXPECT_EQ(report.upper_tables, 1u);  // Just the PGD.
  EXPECT_EQ(report.page_table_bytes, kPageSize);
}

TEST_F(ProcfsTest, VssCountsMappedRssCountsResident) {
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite);
  ProcessMemoryReport before = BuildMemoryReport(p_);
  EXPECT_EQ(before.vss_bytes, kHugePageSize);
  EXPECT_EQ(before.rss_bytes, 0u) << "nothing resident until touched";

  FillPattern(p_, va, 64 * kPageSize, 1);
  ProcessMemoryReport after = BuildMemoryReport(p_);
  EXPECT_EQ(after.rss_bytes, 64 * kPageSize);
  EXPECT_EQ(after.pss_bytes, 64 * kPageSize) << "sole owner: PSS == RSS";
  ASSERT_EQ(after.vmas.size(), 1u);
  EXPECT_EQ(after.vmas[0].private_pages, 64u);
  EXPECT_EQ(after.vmas[0].shared_pages, 0u);
}

TEST_F(ProcfsTest, ClassicForkHalvesPss) {
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, kHugePageSize, 2);
  Process& child = kernel_.Fork(p_, ForkMode::kClassic);
  ProcessMemoryReport parent_report = BuildMemoryReport(p_);
  ProcessMemoryReport child_report = BuildMemoryReport(child);
  EXPECT_EQ(parent_report.rss_bytes, kHugePageSize);
  EXPECT_EQ(child_report.rss_bytes, kHugePageSize);
  EXPECT_EQ(parent_report.pss_bytes, kHugePageSize / 2) << "pages shared two ways";
  EXPECT_EQ(child_report.pss_bytes, kHugePageSize / 2);
  EXPECT_EQ(parent_report.vmas[0].shared_pages, 512u);
  // Classic fork: both sides own dedicated tables.
  EXPECT_EQ(child_report.dedicated_pte_tables, 1u);
  EXPECT_EQ(child_report.shared_pte_tables, 0u);
}

TEST_F(ProcfsTest, OnDemandForkSharesTablesInReport) {
  Vaddr va = p_.Mmap(4 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 4 * kHugePageSize, 3);
  Process& child = kernel_.Fork(p_, ForkMode::kOnDemand);
  ProcessMemoryReport child_report = BuildMemoryReport(child);
  EXPECT_EQ(child_report.shared_pte_tables, 4u);
  EXPECT_EQ(child_report.dedicated_pte_tables, 0u);
  EXPECT_EQ(child_report.rss_bytes, 4 * kHugePageSize)
      << "pages are resident through the shared tables";
  EXPECT_EQ(child_report.pss_bytes, 2 * kHugePageSize) << "two-way proportional split";

  // After the child writes into one chunk, that table becomes dedicated.
  WriteByte(child, va, std::byte{1});
  ProcessMemoryReport after = BuildMemoryReport(child);
  EXPECT_EQ(after.dedicated_pte_tables, 1u);
  EXPECT_EQ(after.shared_pte_tables, 3u);

  // The child's table footprint is tiny compared to a classic child's. (This classic fork
  // also dedicates the parent's remaining shared tables — §3 semantics — so it runs last.)
  Process& classic_child = kernel_.Fork(p_, ForkMode::kClassic);
  ProcessMemoryReport classic_report = BuildMemoryReport(classic_child);
  EXPECT_LT(child_report.page_table_bytes, classic_report.page_table_bytes);
}

TEST_F(ProcfsTest, SwapBytesReported) {
  Vaddr va = p_.Mmap(32 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 32 * kPageSize, 4);
  kernel_.ReclaimMemory(1000);
  ProcessMemoryReport report = BuildMemoryReport(p_);
  EXPECT_EQ(report.swap_bytes, 32 * kPageSize);
  EXPECT_EQ(report.rss_bytes, 0u);
}

TEST_F(ProcfsTest, HugeMappingsCount512PagesPerEntry) {
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(p_, va, std::byte{1});
  ProcessMemoryReport report = BuildMemoryReport(p_);
  EXPECT_EQ(report.rss_bytes, kHugePageSize);
  ASSERT_EQ(report.vmas.size(), 1u);
  EXPECT_TRUE(report.vmas[0].huge);
  EXPECT_EQ(report.vmas[0].present_pages, 512u);
}

TEST_F(ProcfsTest, FormattersProduceReadableText) {
  Vaddr va = p_.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 16 * kPageSize, 5);
  ProcessMemoryReport report = BuildMemoryReport(p_);
  std::string smaps = FormatSmaps(report);
  EXPECT_NE(smaps.find("Rss:"), std::string::npos);
  EXPECT_NE(smaps.find("anon"), std::string::npos);
  std::string status = FormatStatusLine(report);
  EXPECT_NE(status.find("VmRSS 64 kB"), std::string::npos) << status;
}

// smaps names file mappings by kind, and an on-demand-huge fork's shared PMD table counts
// as shared, with the huge page it maps.
TEST_F(ProcfsTest, ReportsFileKindsAndSharedPmdTables) {
  auto file = kernel_.fs().Open("/procfs");
  std::vector<std::byte> data(kPageSize, std::byte{1});
  file->Write(0, data);
  Vaddr shared = p_.address_space().MapFile(file, 0, kPageSize, kProtRead, /*shared=*/true);
  Vaddr priv = p_.address_space().MapFile(file, 0, kPageSize, kProtRead, /*shared=*/false);
  EXPECT_EQ(ReadByte(p_, shared), std::byte{1});
  EXPECT_EQ(ReadByte(p_, priv), std::byte{1});
  Vaddr huge = p_.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(p_, huge, std::byte{2});
  kernel_.Fork(p_, ForkMode::kOnDemandHuge);

  ProcessMemoryReport report = BuildMemoryReport(p_);
  EXPECT_GT(report.shared_pmd_tables, 0u);
  uint64_t shared_pages = 0;
  for (const auto& vma : report.vmas) {
    shared_pages += vma.shared_pages;
  }
  EXPECT_GE(shared_pages, 512u);
  std::string smaps = FormatSmaps(report);
  EXPECT_NE(smaps.find("file-shared"), std::string::npos) << smaps;
  EXPECT_NE(smaps.find("file-private"), std::string::npos) << smaps;
}

TEST_F(ProcfsTest, DebugVmReportsCompileStateAndCounters) {
  // The /sys/kernel/debug/debug_vm analog exists in every build; whether the counters
  // move depends on whether the checkers are compiled in.
  Vaddr va = p_.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 4 * kPageSize, 6);
  kernel_.Fork(p_, ForkMode::kOnDemand);
  std::string text = FormatDebugVm();
  std::string expected_compiled =
      std::string("debug_vm_compiled ") + (debug::Compiled() ? "1" : "0");
  EXPECT_NE(text.find(expected_compiled), std::string::npos) << text;
  for (const char* key : {"vm_checks", "lockdep_acquisitions", "verify_runs",
                          "verify_skipped_concurrent"}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing " << key << " in:\n" << text;
  }
  if (debug::Compiled()) {
    EXPECT_EQ(text.find("vm_checks 0\n"), std::string::npos)
        << "a fork must exercise VM_BUG_ON checks when compiled in:\n" << text;
    EXPECT_EQ(text.find("lockdep_acquisitions 0\n"), std::string::npos) << text;
  }
}

TEST_F(ProcfsTest, HundredOdfChildrenCostAlmostNoTableMemory) {
  // The paper's efficiency angle, quantified: 100 on-demand children of a 64 MiB parent
  // share its 32 PTE tables instead of duplicating them.
  Vaddr va = p_.Mmap(64ULL << 20, kProtRead | kProtWrite);
  p_.address_space().PopulateRange(va, 64ULL << 20);
  uint64_t tables_before = kernel_.allocator().Stats().page_table_frames;
  std::vector<Process*> children;
  for (int i = 0; i < 100; ++i) {
    children.push_back(&kernel_.Fork(p_, ForkMode::kOnDemand));
  }
  uint64_t odf_extra = kernel_.allocator().Stats().page_table_frames - tables_before;
  EXPECT_LT(odf_extra, 100u * 8u) << "ODF children should add only upper-level tables";
  for (Process* child : children) {
    kernel_.Exit(*child, 0);
  }

  // The same with classic fork duplicates every PTE table per child.
  tables_before = kernel_.allocator().Stats().page_table_frames;
  Process& classic_child = kernel_.Fork(p_, ForkMode::kClassic);
  uint64_t classic_extra = kernel_.allocator().Stats().page_table_frames - tables_before;
  EXPECT_GE(classic_extra, 32u) << "one classic child duplicates all 32 PTE tables";
  kernel_.Exit(classic_child, 0);
}

}  // namespace
}  // namespace odf
