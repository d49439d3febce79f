#include "src/apps/kvstore.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace odf {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  KvStoreTest()
      : p_(kernel_.CreateProcess()),
        store_(KvStore::Create(kernel_, p_, 256 << 20, /*bucket_count=*/4096)) {}

  Kernel kernel_;
  Process& p_;
  KvStore store_;
};

TEST_F(KvStoreTest, SetGetRoundTrip) {
  store_.Set("alpha", "one");
  store_.Set("beta", "two");
  EXPECT_EQ(store_.Get("alpha"), "one");
  EXPECT_EQ(store_.Get("beta"), "two");
  EXPECT_EQ(store_.Get("gamma"), std::nullopt);
  EXPECT_EQ(store_.Count(), 2u);
  KvStore view = KvStore::Attach(kernel_, p_, store_.meta_base());
  EXPECT_EQ(view.Get("beta"), "two");
}

TEST_F(KvStoreTest, OverwriteSameSizeAndDifferentSize) {
  store_.Set("k", "aaaa");
  store_.Set("k", "bbbb");
  EXPECT_EQ(store_.Get("k"), "bbbb");
  EXPECT_EQ(store_.Count(), 1u);
  store_.Set("k", "a-longer-value");
  EXPECT_EQ(store_.Get("k"), "a-longer-value");
  EXPECT_EQ(store_.Count(), 1u);
}

TEST_F(KvStoreTest, DeleteRemovesKey) {
  store_.Set("k1", "v1");
  store_.Set("k2", "v2");
  EXPECT_TRUE(store_.Delete("k1"));
  EXPECT_FALSE(store_.Delete("k1"));
  EXPECT_EQ(store_.Get("k1"), std::nullopt);
  EXPECT_EQ(store_.Get("k2"), "v2");
  EXPECT_EQ(store_.Count(), 1u);
}

TEST_F(KvStoreTest, CollidingKeysChainCorrectly) {
  // With 4096 buckets, 10k keys guarantee chains.
  for (int i = 0; i < 10000; ++i) {
    store_.Set("key:" + std::to_string(i), "value-" + std::to_string(i));
  }
  EXPECT_EQ(store_.Count(), 10000u);
  for (int i = 0; i < 10000; i += 97) {
    EXPECT_EQ(store_.Get("key:" + std::to_string(i)), "value-" + std::to_string(i));
  }
  // Delete every third key, verify the rest survive the unlinking.
  for (int i = 0; i < 10000; i += 3) {
    EXPECT_TRUE(store_.Delete("key:" + std::to_string(i)));
  }
  for (int i = 0; i < 10000; ++i) {
    auto value = store_.Get("key:" + std::to_string(i));
    if (i % 3 == 0) {
      EXPECT_EQ(value, std::nullopt);
    } else {
      EXPECT_EQ(value, "value-" + std::to_string(i));
    }
  }
}

TEST_F(KvStoreTest, FillSequentialLoadsDataset) {
  Rng rng(1);
  store_.FillSequential(1000, 512, rng);
  EXPECT_EQ(store_.Count(), 1000u);
  EXPECT_GE(store_.Stats().bytes_in_heap, 1000u * 512u);
  EXPECT_TRUE(store_.Get("key:999").has_value());
}

TEST_F(KvStoreTest, SnapshotSerializesAllEntries) {
  Rng rng(2);
  store_.FillSequential(500, 128, rng);
  uint64_t bytes = store_.SaveSnapshot("/snap.rdb");
  // 500 entries x (8 header + keylen + 128 value).
  EXPECT_GT(bytes, 500u * 136u);
  auto file = kernel_.fs().Lookup("/snap.rdb");
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(file->size(), bytes);
}

class KvSnapshotForkTest : public KvStoreTest,
                           public ::testing::WithParamInterface<ForkMode> {};

TEST_P(KvSnapshotForkTest, SnapshotIsConsistentWhileParentMutates) {
  Rng rng(3);
  store_.FillSequential(300, 64, rng);

  // Snapshot via fork, then mutate the parent immediately; the snapshot file must reflect
  // the pre-fork state (300 entries), not the mutations.
  double blocked = store_.SnapshotWithFork("/snap.rdb", GetParam());
  EXPECT_GT(blocked, 0.0);
  store_.Set("after", "snapshot");
  EXPECT_EQ(store_.Count(), 301u);

  auto file = kernel_.fs().Lookup("/snap.rdb");
  ASSERT_NE(file, nullptr);
  // Parse the snapshot: count records.
  uint64_t offset = 0;
  uint64_t records = 0;
  while (offset < file->size()) {
    uint32_t lens[2];
    file->Read(offset, std::as_writable_bytes(std::span(lens)));
    offset += 8 + lens[0] + lens[1];
    ++records;
  }
  EXPECT_EQ(records, 300u);
}

TEST_P(KvSnapshotForkTest, RepeatedSnapshotsLeakNothing) {
  Rng rng(4);
  store_.FillSequential(200, 64, rng);
  for (int round = 0; round < 5; ++round) {
    store_.SnapshotWithFork("/snap.rdb", GetParam());
    store_.Set("round:" + std::to_string(round), "x");
  }
  EXPECT_EQ(store_.Count(), 205u);
  uint64_t processes = kernel_.ProcessCount();
  EXPECT_EQ(processes, 1u) << "snapshot children must be reaped";
}

INSTANTIATE_TEST_SUITE_P(BothForks, KvSnapshotForkTest,
                         ::testing::Values(ForkMode::kClassic, ForkMode::kOnDemand),
                         [](const auto& param_info) {
                           return param_info.param == ForkMode::kClassic ? "classic" : "ondemand";
                         });

}  // namespace
}  // namespace odf
