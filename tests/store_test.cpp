// Storage substrate tests: sharded in-memory KV, file-backed log KV with
// restart/compaction, prefix views, byte-budget LRU cache, latency
// decorator, Scan interactions with replication catch-up, and one
// Put/Append/Delete/Get conformance script run against every store.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

#include "crypto/rand.hpp"
#include "replica/replicated_kv.hpp"
#include "store/fault_kv.hpp"
#include "store/latency.hpp"
#include "store/log_kv.hpp"
#include "store/lru_cache.hpp"
#include "store/mem_kv.hpp"
#include "store/prefix_kv.hpp"

namespace tc::store {
namespace {

class MemKvTest : public ::testing::Test {
 protected:
  MemKvStore kv_{4};
};

TEST_F(MemKvTest, PutGetRoundTrip) {
  ASSERT_TRUE(kv_.Put("a", ToBytes("hello")).ok());
  auto v = kv_.Get("a");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ToString(*v), "hello");
}

TEST_F(MemKvTest, GetMissingIsNotFound) {
  EXPECT_EQ(kv_.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(MemKvTest, OverwriteReplacesValueAndAccounting) {
  ASSERT_TRUE(kv_.Put("k", ToBytes("12345")).ok());
  ASSERT_TRUE(kv_.Put("k", ToBytes("67")).ok());
  EXPECT_EQ(ToString(*kv_.Get("k")), "67");
  EXPECT_EQ(kv_.ValueBytes(), 2u);
  EXPECT_EQ(kv_.Size(), 1u);
}

TEST_F(MemKvTest, DeleteRemoves) {
  ASSERT_TRUE(kv_.Put("k", ToBytes("v")).ok());
  ASSERT_TRUE(kv_.Delete("k").ok());
  EXPECT_FALSE(kv_.Contains("k"));
  EXPECT_EQ(kv_.Delete("k").code(), StatusCode::kNotFound);
}

TEST_F(MemKvTest, ConcurrentWritersDistinctKeys) {
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(kv_.Put(key, ToBytes(key)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(kv_.Size(), static_cast<size_t>(kThreads * kPerThread));
}

class LogKvTest : public ::testing::Test {
 protected:
  LogKvTest() {
    path_ = std::filesystem::temp_directory_path() /
            ("tc_log_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~LogKvTest() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
  static int counter_;
};
int LogKvTest::counter_ = 0;

TEST_F(LogKvTest, PersistsAcrossReopen) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("alpha", ToBytes("1")).ok());
    ASSERT_TRUE((*kv)->Put("beta", ToBytes("2")).ok());
    ASSERT_TRUE((*kv)->Delete("alpha").ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_FALSE((*kv)->Contains("alpha"));
  EXPECT_EQ(ToString(*(*kv)->Get("beta")), "2");
  EXPECT_EQ((*kv)->Size(), 1u);
}

TEST_F(LogKvTest, OverwriteKeepsLatestAfterReplay) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*kv)->Put("k", ToBytes(std::to_string(i))).ok());
    }
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path_.string());
  EXPECT_EQ(ToString(*(*kv)->Get("k")), "9");
}

TEST_F(LogKvTest, CompactShrinksLog) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*kv)->Put("hot", Bytes(100, uint8_t(i))).ok());
  }
  ASSERT_TRUE((*kv)->Sync().ok());
  auto before = std::filesystem::file_size(path_);
  auto reclaimed = (*kv)->Compact();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(*reclaimed, 0u);
  ASSERT_TRUE((*kv)->Sync().ok());
  auto after = std::filesystem::file_size(path_);
  EXPECT_LT(after, before);
  EXPECT_EQ((*kv)->Get("hot")->size(), 100u);
}

TEST_F(LogKvTest, AutoCompactionTriggersAtDeadFraction) {
  LogKvOptions options;
  options.compact_dead_fraction = 0.5;
  options.compact_min_dead_bytes = 4096;  // well below the default 1 MiB
  auto kv = LogKvStore::Open(path_.string(), options);
  ASSERT_TRUE(kv.ok());

  // Live data plus repeated overwrites of one key: dead bytes accumulate
  // until they exceed half the total, then the store compacts itself.
  ASSERT_TRUE((*kv)->Put("live", Bytes(2048, 0x11)).ok());
  EXPECT_EQ((*kv)->CompactionCount(), 0u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*kv)->Put("churn", Bytes(2048, uint8_t(i))).ok());
  }
  EXPECT_GE((*kv)->CompactionCount(), 1u);
  // Post-compaction the log holds only live records.
  EXPECT_LT((*kv)->DeadBytes(), options.compact_min_dead_bytes);
  ASSERT_TRUE((*kv)->Sync().ok());
  // Far below the ~18 KiB the 9 appended records total (the live pair plus
  // at most a couple of post-compaction appends remain).
  EXPECT_LT(std::filesystem::file_size(path_), 4u * 2048u);

  // Everything survives the rewrite, in memory and on disk.
  EXPECT_EQ((*kv)->Get("live")->size(), 2048u);
  EXPECT_EQ((*(*kv)->Get("churn"))[0], uint8_t(7));
  kv->reset();
  auto reopened = LogKvStore::Open(path_.string(), options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 2u);
  EXPECT_EQ((*(*reopened)->Get("churn"))[0], uint8_t(7));
}

TEST_F(LogKvTest, AutoCompactionDisabledByDefault) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*kv)->Put("churn", Bytes(64 * 1024, uint8_t(i))).ok());
  }
  // Dead bytes pile up far past any threshold; no compaction runs.
  EXPECT_EQ((*kv)->CompactionCount(), 0u);
  EXPECT_GT((*kv)->DeadBytes(), 60u * 64u * 1024u);
}

TEST_F(LogKvTest, TombstonesCountTowardAutoCompaction) {
  LogKvOptions options;
  options.compact_dead_fraction = 0.25;
  options.compact_min_dead_bytes = 1024;
  auto kv = LogKvStore::Open(path_.string(), options);
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("live", Bytes(512, 0x22)).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*kv)->Put("dead" + std::to_string(i), Bytes(512, 0x33)).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*kv)->Delete("dead" + std::to_string(i)).ok());
  }
  EXPECT_GE((*kv)->CompactionCount(), 1u);
  EXPECT_TRUE((*kv)->Contains("live"));
  EXPECT_EQ((*kv)->Size(), 1u);
}

TEST_F(LogKvTest, GroupCommitSyncSkipsCoveredFlushes) {
  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  // Sync with nothing appended (and re-sync with nothing new) is a no-op;
  // appends re-arm it. Observable contract: Sync always leaves the file
  // complete, regardless of how many callers coalesced.
  ASSERT_TRUE((*kv)->Sync().ok());
  ASSERT_TRUE((*kv)->Put("a", ToBytes("1")).ok());
  ASSERT_TRUE((*kv)->Sync().ok());
  auto after_first = std::filesystem::file_size(path_);
  ASSERT_TRUE((*kv)->Sync().ok());  // covered: nothing new to flush
  EXPECT_EQ(std::filesystem::file_size(path_), after_first);
  ASSERT_TRUE((*kv)->Put("b", ToBytes("2")).ok());
  ASSERT_TRUE((*kv)->Sync().ok());
  EXPECT_GT(std::filesystem::file_size(path_), after_first);

  // Concurrent writers + syncers: every record a thread synced after
  // writing must be on disk at the end.
  constexpr int kThreads = 4, kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&kv, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "g" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE((*kv)->Put(key, ToBytes(key)).ok());
        ASSERT_TRUE((*kv)->Sync().ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  kv->reset();
  auto reopened = LogKvStore::Open(path_.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 2u + kThreads * kPerThread);
}

TEST_F(LogKvTest, ToleratesTornTailWrite) {
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE((*kv)->Put("good", ToBytes("value")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  // Simulate a crash mid-append: truncate a few bytes off the tail after
  // appending another record.
  {
    auto kv = LogKvStore::Open(path_.string());
    ASSERT_TRUE((*kv)->Put("torn", ToBytes("partial")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 3);

  auto kv = LogKvStore::Open(path_.string());
  ASSERT_TRUE(kv.ok());
  EXPECT_TRUE((*kv)->Contains("good"));
  EXPECT_FALSE((*kv)->Contains("torn"));
}

LruCache::Value Buf(Bytes bytes) {
  return std::make_shared<const Bytes>(std::move(bytes));
}

TEST(LruCacheTest, HitAndMissCounting) {
  LruCache cache(1024);
  cache.Put("a", Buf(ToBytes("1")));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.Put("a", Buf(Bytes(10, 1)));
  cache.Put("b", Buf(Bytes(10, 2)));
  cache.Put("c", Buf(Bytes(10, 3)));
  // Touch "a" so "b" becomes the LRU victim.
  EXPECT_NE(cache.Get("a"), nullptr);
  cache.Put("d", Buf(Bytes(10, 4)));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_NE(cache.Get("d"), nullptr);
}

TEST(LruCacheTest, OversizedValueNotCached) {
  LruCache cache(8);
  cache.Put("big", Buf(Bytes(100, 0)));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST(LruCacheTest, UpdateRefreshesSizeAccounting) {
  LruCache cache(100);
  cache.Put("k", Buf(Bytes(50, 0)));
  cache.Put("k", Buf(Bytes(10, 0)));
  EXPECT_EQ(cache.size_bytes(), 10u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache cache(100);
  cache.Put("a", Buf(Bytes(10, 0)));
  cache.Put("b", Buf(Bytes(10, 0)));
  cache.Erase("a");
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

std::map<std::string, std::string> ScanAll(const KvStore& kv) {
  std::map<std::string, std::string> out;
  EXPECT_TRUE(kv.Scan([&](const std::string& key, BytesView value) {
                out.emplace(key, ToString(value));
              }).ok());
  return out;
}

TEST(ScanTest, MemAndLogStoresVisitEveryPair) {
  MemKvStore mem(4);
  ASSERT_TRUE(mem.Put("a", ToBytes("1")).ok());
  ASSERT_TRUE(mem.Put("b", ToBytes("2")).ok());
  ASSERT_TRUE(mem.Delete("a").ok());
  EXPECT_EQ(ScanAll(mem),
            (std::map<std::string, std::string>{{"b", "2"}}));

  auto path = std::filesystem::temp_directory_path() /
              ("tc_scan_test_" + std::to_string(::getpid()));
  std::filesystem::remove(path);
  {
    auto log = LogKvStore::Open(path.string());
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Put("x", ToBytes("9")).ok());
    ASSERT_TRUE((*log)->Put("y", ToBytes("8")).ok());
    EXPECT_EQ(ScanAll(**log), (std::map<std::string, std::string>{
                                  {"x", "9"}, {"y", "8"}}));
  }
  std::filesystem::remove(path);
}

TEST(PrefixKvTest, EmptyPrefixIsATransparentView) {
  auto backend = std::make_shared<MemKvStore>();
  PrefixKvStore view(backend, "");
  ASSERT_TRUE(view.Put("k", ToBytes("v")).ok());
  EXPECT_EQ(ToString(*backend->Get("k")), "v");
  EXPECT_EQ(ScanAll(view), ScanAll(*backend));
  ASSERT_TRUE(view.Delete("k").ok());
  EXPECT_EQ(backend->Size(), 0u);
}

TEST(PrefixKvTest, NestedViewsComposePrefixes) {
  auto backend = std::make_shared<MemKvStore>();
  auto outer = std::make_shared<PrefixKvStore>(backend, "a/");
  PrefixKvStore inner(outer, "b/");
  ASSERT_TRUE(inner.Put("k", ToBytes("v")).ok());
  EXPECT_TRUE(backend->Contains("a/b/k"));
  EXPECT_EQ(ToString(*inner.Get("k")), "v");
  // Each layer's Scan strips its own prefix: the inner view round-trips
  // bare keys, the outer view sees the inner namespace.
  EXPECT_EQ(ScanAll(inner),
            (std::map<std::string, std::string>{{"k", "v"}}));
  EXPECT_EQ(ScanAll(*outer),
            (std::map<std::string, std::string>{{"b/k", "v"}}));
  ASSERT_TRUE(inner.Delete("k").ok());
  EXPECT_EQ(backend->Size(), 0u);
}

TEST(PrefixKvTest, ScanExcludesLexicalNeighborsOfThePrefix) {
  // "s1/" must not capture "s10/..." or the bare "s1" key, and a key that
  // merely starts with the prefix's first bytes ("s1" alone, "s1.") stays
  // out — the boundary is an exact prefix match, not a range guess.
  auto backend = std::make_shared<MemKvStore>();
  ASSERT_TRUE(backend->Put("s1/inside", ToBytes("yes")).ok());
  ASSERT_TRUE(backend->Put("s1/", ToBytes("empty-key")).ok());
  ASSERT_TRUE(backend->Put("s10/outside", ToBytes("no")).ok());
  ASSERT_TRUE(backend->Put("s1", ToBytes("no")).ok());
  ASSERT_TRUE(backend->Put("s1.z", ToBytes("no")).ok());
  ASSERT_TRUE(backend->Put("s2/other", ToBytes("no")).ok());
  PrefixKvStore view(backend, "s1/");
  EXPECT_EQ(ScanAll(view), (std::map<std::string, std::string>{
                               {"", "empty-key"}, {"inside", "yes"}}));
}

TEST_F(LogKvTest, CompactionDuringFollowerCatchUpKeepsStoresIdentical) {
  // A primary log full of dead bytes compacts while a follower is being
  // seeded and streamed to: the snapshot Scan and Compact serialize on the
  // store's mutex, so the follower must converge to the exact live set no
  // matter how the two interleave — and survive its own reopen.
  auto follower_path = path_.string() + ".follower";
  std::filesystem::remove(follower_path);
  {
    auto primary = LogKvStore::Open(path_.string());
    ASSERT_TRUE(primary.ok());
    LogKvStore* primary_raw = primary->get();
    auto rkv = std::make_shared<replica::ReplicatedKvStore>(
        std::shared_ptr<KvStore>(std::move(*primary)));
    // Churn: overwrites and deletes accumulate dead bytes pre-attach.
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(rkv->Put("k" + std::to_string(i % 20),
                           Bytes(256, static_cast<uint8_t>(i)))
                      .ok());
    }
    ASSERT_TRUE(rkv->Delete("k0").ok());
    EXPECT_GT(primary_raw->DeadBytes(), 0u);

    auto follower = LogKvStore::Open(follower_path);
    ASSERT_TRUE(follower.ok());
    std::shared_ptr<KvStore> follower_kv = std::move(*follower);
    rkv->AddFollower(std::make_shared<replica::LocalFollower>(follower_kv));
    // Compact mid-catch-up, then keep churning so streaming continues past
    // the snapshot.
    ASSERT_TRUE(primary_raw->Compact().ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(rkv->Put("post" + std::to_string(i % 5),
                           Bytes(64, static_cast<uint8_t>(i)))
                      .ok());
    }
    ASSERT_TRUE(primary_raw->Compact().ok());
    ASSERT_TRUE(rkv->WaitCaughtUp().ok());
    EXPECT_EQ(ScanAll(*follower_kv), ScanAll(*rkv));
  }
  // The follower's own log replays to the same state.
  {
    auto reopened = LogKvStore::Open(follower_path);
    ASSERT_TRUE(reopened.ok());
    auto primary = LogKvStore::Open(path_.string());
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(ScanAll(**reopened), ScanAll(**primary));
  }
  std::filesystem::remove(follower_path);
}

TEST_F(LogKvTest, TornAppendRecordReadsAsBeforeTheAppend) {
  std::string path = path_.string();
  size_t before = 0;
  {
    auto kv = LogKvStore::Open(path);
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("k", ToBytes("base")).ok());
    ASSERT_TRUE((*kv)->Append("k", ToBytes("-one")).ok());
    ASSERT_TRUE((*kv)->Put("other", ToBytes("x")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
    before = std::filesystem::file_size(path_);
    ASSERT_TRUE((*kv)->Append("k", ToBytes("-two")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(full.size(), before);
  // Every cut inside the final append record drops the record whole.
  for (size_t cut = before; cut < full.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    auto kv = LogKvStore::Open(path);
    ASSERT_TRUE(kv.ok()) << "cut at " << cut;
    EXPECT_EQ(ToString(*(*kv)->Get("k")), "base-one") << "cut at " << cut;
    EXPECT_EQ(ToString(*(*kv)->Get("other")), "x") << "cut at " << cut;
  }
  // The torn tail was truncated away, so a new append replays after it.
  {
    auto kv = LogKvStore::Open(path);
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Append("k", ToBytes("-again")).ok());
    ASSERT_TRUE((*kv)->Sync().ok());
  }
  auto kv = LogKvStore::Open(path);
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(ToString(*(*kv)->Get("k")), "base-one-again");
}

// ------------------------------------------------------------ conformance

/// One store under test. The script runs against `kv`; `settle` then
/// returns the store whose contents must equal the reference — after a
/// compaction, a reopen or a follower catch-up, depending on the case.
struct StoreUnderTest {
  std::shared_ptr<KvStore> kv;
  std::function<std::shared_ptr<KvStore>(std::shared_ptr<KvStore>)> settle =
      [](std::shared_ptr<KvStore> kv) { return kv; };
};

struct ConformanceCase {
  const char* name;
  std::function<StoreUnderTest(const std::string& path)> open;
};

void PrintTo(const ConformanceCase& c, std::ostream* os) { *os << c.name; }

std::shared_ptr<KvStore> OpenLog(const std::string& path) {
  auto log = LogKvStore::Open(path);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return log.ok() ? std::shared_ptr<KvStore>(std::move(*log)) : nullptr;
}

const ConformanceCase kConformanceCases[] = {
    {"Mem", [](const std::string&) {
       return StoreUnderTest{std::make_shared<MemKvStore>()};
     }},
    {"Log", [](const std::string& path) {
       return StoreUnderTest{OpenLog(path)};
     }},
    {"LogCompacted",
     [](const std::string& path) {
       return StoreUnderTest{OpenLog(path), [](std::shared_ptr<KvStore> kv) {
                               auto* log = static_cast<LogKvStore*>(kv.get());
                               EXPECT_TRUE(log->Compact().ok());
                               return kv;
                             }};
     }},
    {"LogReopened",
     [](const std::string& path) {
       return StoreUnderTest{OpenLog(path),
                             [path](std::shared_ptr<KvStore> kv) {
                               EXPECT_TRUE(kv->Sync().ok());
                               kv.reset();  // close before replaying
                               return OpenLog(path);
                             }};
     }},
    {"Prefix", [](const std::string&) {
       return StoreUnderTest{std::make_shared<PrefixKvStore>(
           std::make_shared<MemKvStore>(), "view/")};
     }},
    {"Fault", [](const std::string&) {
       return StoreUnderTest{
           std::make_shared<FaultKvStore>(std::make_shared<MemKvStore>())};
     }},
    {"Latency0", [](const std::string&) {
       return StoreUnderTest{std::make_shared<LatencyKvStore>(
           std::make_shared<MemKvStore>(), std::chrono::microseconds(0))};
     }},
    {"Replicated",
     [](const std::string&) {
       auto follower = std::make_shared<MemKvStore>();
       auto rkv = std::make_shared<replica::ReplicatedKvStore>(
           std::make_shared<MemKvStore>());
       rkv->AddFollower(std::make_shared<replica::LocalFollower>(follower));
       return StoreUnderTest{rkv, [follower](std::shared_ptr<KvStore> kv) {
                               auto* rkv = static_cast<
                                   replica::ReplicatedKvStore*>(kv.get());
                               EXPECT_TRUE(rkv->WaitCaughtUp().ok());
                               EXPECT_EQ(ScanAll(*follower), ScanAll(*rkv));
                               return kv;
                             }};
     }},
};

class KvConformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(KvConformance, MatchesMapReference) {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("tc_conformance_" + std::to_string(::getpid()) + "_" +
       GetParam().name);
  std::filesystem::remove(path);
  StoreUnderTest sut = GetParam().open(path.string());
  ASSERT_NE(sut.kv, nullptr);

  std::map<std::string, std::string> ref;
  crypto::DeterministicRng rng(2024);
  auto random_bytes = [&](uint64_t max_len) {
    std::string out(rng.NextBelow(max_len + 1), '\0');
    for (char& c : out) c = static_cast<char>('a' + rng.NextBelow(26));
    return out;
  };
  for (int op = 0; op < 800; ++op) {
    std::string key = "k" + std::to_string(rng.NextBelow(6));
    switch (rng.NextBelow(10)) {
      case 0: case 1: case 2: {
        std::string value = random_bytes(40);
        ASSERT_TRUE(sut.kv->Put(key, ToBytes(value)).ok());
        ref[key] = value;
        break;
      }
      case 3: case 4: case 5: {
        std::string bytes = random_bytes(12);
        ASSERT_TRUE(sut.kv->Append(key, ToBytes(bytes)).ok());
        ref[key] += bytes;
        break;
      }
      case 6: {
        Status s = sut.kv->Delete(key);
        EXPECT_EQ(s.ok(), ref.erase(key) == 1) << "op " << op;
        break;
      }
      default: {
        auto got = sut.kv->Get(key);
        auto it = ref.find(key);
        ASSERT_EQ(got.ok(), it != ref.end()) << "op " << op << " " << key;
        if (got.ok()) EXPECT_EQ(ToString(*got), it->second) << "op " << op;
      }
    }
  }
  std::shared_ptr<KvStore> settled = sut.settle(std::move(sut.kv));
  ASSERT_NE(settled, nullptr);
  EXPECT_EQ(ScanAll(*settled), ref);
  for (const auto& [key, value] : ref) {
    auto got = settled->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(ToString(*got), value);
  }
  settled.reset();
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    Stores, KvConformance, ::testing::ValuesIn(kConformanceCases),
    [](const ::testing::TestParamInfo<ConformanceCase>& info) {
      return std::string(info.param.name);
    });

TEST(LatencyKvTest, DelegatesAndCounts) {
  auto inner = std::make_shared<MemKvStore>();
  LatencyKvStore kv(inner, std::chrono::microseconds(0));
  ASSERT_TRUE(kv.Put("k", ToBytes("v")).ok());
  EXPECT_EQ(ToString(*kv.Get("k")), "v");
  EXPECT_EQ(kv.ops(), 2u);
  EXPECT_EQ(inner->Size(), 1u);
}

TEST(LatencyKvTest, InjectsDelay) {
  auto inner = std::make_shared<MemKvStore>();
  LatencyKvStore kv(inner, std::chrono::microseconds(2000));
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(kv.Put("k", ToBytes("v")).ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            1900);
}

}  // namespace
}  // namespace tc::store
