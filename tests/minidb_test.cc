#include "src/apps/minidb.h"

#include <gtest/gtest.h>

#include "src/apps/minidb_shell.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class MiniDbTest : public ::testing::Test {
 protected:
  MiniDbTest()
      : p_(kernel_.CreateProcess()), db_(MiniDb::Create(kernel_, p_, 512 << 20)) {
    db_.CreateTable("t", {ColumnSpec{ColumnType::kInt64, 8},
                          ColumnSpec{ColumnType::kText, 32}});
  }

  RowValue MakeRow(int64_t key, int64_t payload, const std::string& text) {
    RowValue row;
    row.key = key;
    row.ints.push_back(payload);
    row.strings.push_back(text);
    return row;
  }

  Kernel kernel_;
  Process& p_;
  MiniDb db_;
};

TEST_F(MiniDbTest, InsertAndSelect) {
  EXPECT_TRUE(db_.Insert("t", MakeRow(1, 100, "hello")));
  EXPECT_TRUE(db_.Insert("t", MakeRow(2, 200, "world")));
  auto row = db_.SelectByKey("t", 1);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->key, 1);
  EXPECT_EQ(row->ints.at(0), 100);
  EXPECT_EQ(row->strings.at(0), "hello");
  EXPECT_FALSE(db_.SelectByKey("t", 3).has_value());
  EXPECT_EQ(db_.RowCount("t"), 2u);
}

TEST_F(MiniDbTest, TablesLiveOnTheSimulatedHeap) {
  EXPECT_GT(db_.heap().Stats().brk, 0u);
}

TEST_F(MiniDbTest, DuplicateKeyRejected) {
  EXPECT_TRUE(db_.Insert("t", MakeRow(7, 1, "a")));
  EXPECT_FALSE(db_.Insert("t", MakeRow(7, 2, "b")));
  EXPECT_EQ(db_.SelectByKey("t", 7)->ints.at(0), 1);
}

TEST_F(MiniDbTest, UpdateByKey) {
  db_.Insert("t", MakeRow(5, 50, "x"));
  EXPECT_TRUE(db_.UpdateByKey("t", 5, 99));
  EXPECT_FALSE(db_.UpdateByKey("t", 6, 99));
  EXPECT_EQ(db_.SelectByKey("t", 5)->ints.at(0), 99);
  EXPECT_EQ(db_.SelectByKey("t", 5)->strings.at(0), "x");
}

TEST_F(MiniDbTest, DeleteByKey) {
  db_.Insert("t", MakeRow(5, 50, "x"));
  db_.Insert("t", MakeRow(6, 60, "y"));
  EXPECT_TRUE(db_.DeleteByKey("t", 5));
  EXPECT_FALSE(db_.DeleteByKey("t", 5));
  EXPECT_FALSE(db_.SelectByKey("t", 5).has_value());
  EXPECT_TRUE(db_.SelectByKey("t", 6).has_value());
  EXPECT_EQ(db_.RowCount("t"), 1u);
}

TEST_F(MiniDbTest, RangePredicates) {
  for (int64_t i = 0; i < 100; ++i) {
    db_.Insert("t", MakeRow(i, i % 10, "r"));
  }
  EXPECT_EQ(db_.CountWhereIntColumn("t", 0, 3, 5), 30u);
  EXPECT_EQ(db_.UpdateWhereIntColumn("t", 0, 9, 9, 1000), 10u);
  EXPECT_EQ(db_.CountWhereIntColumn("t", 0, 1000, 1000), 10u);
  EXPECT_EQ(db_.DeleteWhereIntColumn("t", 0, 0, 0), 10u);
  EXPECT_EQ(db_.RowCount("t"), 90u);
  // Deleted rows must also be gone from the index.
  EXPECT_FALSE(db_.SelectByKey("t", 0).has_value());
  EXPECT_FALSE(db_.SelectByKey("t", 10).has_value());
}

TEST_F(MiniDbTest, SegmentGrowthPastOneSegment) {
  for (int64_t i = 0; i < 1000; ++i) {  // kRowsPerSegment is 256.
    ASSERT_TRUE(db_.Insert("t", MakeRow(i, i, "seg")));
  }
  EXPECT_EQ(db_.RowCount("t"), 1000u);
  EXPECT_EQ(db_.SelectByKey("t", 999)->ints.at(0), 999);
  EXPECT_EQ(db_.CountWhereIntColumn("t", 0, 0, 999999), 1000u);
}

TEST_F(MiniDbTest, MultipleTables) {
  db_.CreateTable("u", {ColumnSpec{ColumnType::kInt64, 8}});
  EXPECT_TRUE(db_.HasTable("t"));
  EXPECT_TRUE(db_.HasTable("u"));
  EXPECT_FALSE(db_.HasTable("v"));
  db_.Insert("u", MakeRow(1, 11, ""));
  db_.Insert("t", MakeRow(1, 22, "z"));
  EXPECT_EQ(db_.SelectByKey("u", 1)->ints.at(0), 11);
  EXPECT_EQ(db_.SelectByKey("t", 1)->ints.at(0), 22);
}

TEST_F(MiniDbTest, BulkLoadFixture) {
  Rng rng(5);
  db_.BulkLoadFixture("big", 5000, 64, rng);
  EXPECT_EQ(db_.RowCount("big"), 5000u);
  EXPECT_TRUE(db_.SelectByKey("big", 4999).has_value());
  EXPECT_EQ(db_.CountWhereIntColumn("big", 0, 0, 999), 5000u);
}

TEST_F(MiniDbTest, ForkedChildSeesDbAndIsIsolated) {
  for (int64_t i = 0; i < 500; ++i) {
    db_.Insert("t", MakeRow(i, i, "row"));
  }
  Process& child = kernel_.Fork(p_, ForkMode::kOnDemand);
  MiniDb child_db = MiniDb::Attach(kernel_, child, db_.meta_base());
  EXPECT_EQ(child_db.RowCount("t"), 500u);
  EXPECT_TRUE(child_db.DeleteByKey("t", 123));
  EXPECT_TRUE(child_db.UpdateByKey("t", 200, -1));
  EXPECT_TRUE(child_db.Insert("t", MakeRow(9999, 1, "child-only")));
  // Parent unaffected.
  EXPECT_EQ(db_.RowCount("t"), 500u);
  EXPECT_TRUE(db_.SelectByKey("t", 123).has_value());
  EXPECT_EQ(db_.SelectByKey("t", 200)->ints.at(0), 200);
  EXPECT_FALSE(db_.SelectByKey("t", 9999).has_value());
}

TEST_F(MiniDbTest, ShellExecutesCommands) {
  CoverageMap coverage;
  ShellResult result = RunMiniDbShell(
      db_, "t", "INS 1 10 abc\nINS 2 20 def\nSEL 1\nUPD 2 99\nDEL 1\nRNG 0 1000\n", &coverage);
  EXPECT_EQ(result.commands_executed, 6u);
  EXPECT_EQ(result.parse_errors, 0u);
  EXPECT_EQ(db_.RowCount("t"), 1u);
  EXPECT_EQ(db_.SelectByKey("t", 2)->ints.at(0), 99);
}

TEST_F(MiniDbTest, ShellSurvivesGarbageInput) {
  CoverageMap coverage;
  ShellResult result = RunMiniDbShell(
      db_, "t", "XYZ\nINS\nSEL notanumber\nRNG 10 5\nUPD 1\n\x01\x02\x03\n", &coverage);
  EXPECT_GT(result.parse_errors, 0u);
  EXPECT_EQ(db_.RowCount("t"), 0u);
}

TEST_F(MiniDbTest, ShellCoverageDistinguishesPaths) {
  std::array<uint8_t, CoverageMap::kSize> virgin{};
  CoverageMap coverage;
  RunMiniDbShell(db_, "t", "SEL 1\n", &coverage);
  uint64_t first = coverage.MergeInto(virgin);
  EXPECT_GT(first, 0u);

  coverage.Clear();
  RunMiniDbShell(db_, "t", "SEL 1\n", &coverage);
  EXPECT_EQ(coverage.MergeInto(virgin), 0u) << "identical input must add no coverage";

  coverage.Clear();
  RunMiniDbShell(db_, "t", "INS 1 2 x\nSEL 1\n", &coverage);
  EXPECT_GT(coverage.MergeInto(virgin), 0u) << "new paths (INS + SEL-hit) must add coverage";
}

}  // namespace
}  // namespace odf
