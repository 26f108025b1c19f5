// Consumer key-path tests: the RPCs a consumer query costs (one series RPC,
// plus one envelope fetch per resolution grant while its windows are not
// yet open), that a lying envelope response fails without leaving anything
// in the opened-leaf table, and that forged grants sealed to the consumer
// are skipped at FetchGrants instead of crashing later queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"
#include "test_transports.hpp"

namespace tc {
namespace {

using client::AccessGrant;
using client::ConsumerClient;
using client::GrantKind;
using client::OwnerClient;
using client::Principal;
using client::StatResult;
using net::MessageType;
using test::CountingTransport;
using test::RewritingTransport;

constexpr DurationMs kDelta = 10 * kSecond;
constexpr uint64_t kChunks = 120;
constexpr uint64_t kResolution = 6;  // a one-hour series has 10 windows

net::StreamConfig Config() {
  net::StreamConfig c;
  c.name = "devops/cpu";
  c.t0 = 0;
  c.delta_ms = kDelta;
  c.schema.with_sum = true;
  c.schema.with_count = true;
  c.cipher = net::CipherKind::kHeac;
  c.fanout = 4;
  return c;
}

TimeRange Chunks(uint64_t first, uint64_t last) {
  return {static_cast<Timestamp>(first * kDelta),
          static_cast<Timestamp>(last * kDelta)};
}

class ConsumerKeyPathTest : public ::testing::Test {
 protected:
  ConsumerKeyPathTest()
      : server_(std::make_shared<server::ServerEngine>(
            std::make_shared<store::MemKvStore>())),
        transport_(std::make_shared<net::InProcTransport>(server_)),
        envelopes_(std::make_shared<RewritingTransport<
                       net::GetEnvelopesResponse>>(
            transport_, MessageType::kGetEnvelopes)),
        counted_(std::make_shared<CountingTransport>(envelopes_)),
        owner_(transport_) {
    auto uuid = owner_.CreateStream(Config());
    EXPECT_TRUE(uuid.ok());
    uuid_ = *uuid;
    for (uint64_t c = 0; c < kChunks; ++c) {
      EXPECT_TRUE(owner_
                      .InsertRecord(uuid_, {static_cast<Timestamp>(c * kDelta),
                                            static_cast<int64_t>(c + 1)})
                      .ok());
    }
    EXPECT_TRUE(owner_.Flush(uuid_).ok());
  }

  /// A consumer on the counting transport holding a grant on all chunks at
  /// `resolution` (1: tree tokens; more: key regression + envelopes).
  std::unique_ptr<ConsumerClient> Consumer(uint64_t resolution) {
    Principal p{"reader-" + std::to_string(readers_++),
                crypto::GenerateBoxKeyPair()};
    EXPECT_TRUE(owner_
                    .GrantAccess(uuid_, p.id, p.keys.public_key,
                                 Chunks(0, kChunks), resolution)
                    .ok());
    auto consumer = std::make_unique<ConsumerClient>(counted_, std::move(p));
    EXPECT_EQ(consumer->FetchGrants().value(), 1);
    return consumer;
  }

  /// The owner's answer for the same series: the oracle.
  void ExpectOwnerSeries(const Result<std::vector<StatResult>>& got,
                         uint64_t first, uint64_t last) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = owner_.GetStatSeries(uuid_, Chunks(first, last), kResolution);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->size(), want->size());
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].first_chunk, (*want)[i].first_chunk);
      EXPECT_EQ((*got)[i].last_chunk, (*want)[i].last_chunk);
      EXPECT_EQ((*got)[i].stats.Sum().value(), (*want)[i].stats.Sum().value());
      EXPECT_EQ((*got)[i].stats.Count().value(), kResolution);
    }
  }

  std::shared_ptr<server::ServerEngine> server_;
  std::shared_ptr<net::Transport> transport_;
  std::shared_ptr<RewritingTransport<net::GetEnvelopesResponse>> envelopes_;
  std::shared_ptr<CountingTransport> counted_;
  OwnerClient owner_;
  uint64_t uuid_ = 0;
  int readers_ = 0;
};

TEST_F(ConsumerKeyPathTest, KeyRegressionSeriesFetchesEnvelopesOnce) {
  auto consumer = Consumer(kResolution);
  // Cache the stream config, then drop the opened leaves: FetchGrants
  // starts every grant's table empty.
  ASSERT_TRUE(consumer->GetStatSeries(uuid_, Chunks(60, 120), 6).ok());
  ASSERT_EQ(consumer->FetchGrants().value(), 1);

  counted_->Reset();
  auto cold = consumer->GetStatSeries(uuid_, Chunks(60, 120), kResolution);
  ExpectOwnerSeries(cold, 60, 120);
  EXPECT_LE(counted_->calls(), 2u);
  EXPECT_EQ(counted_->calls(MessageType::kGetEnvelopes), 1u);

  counted_->Reset();
  auto warm = consumer->GetStatSeries(uuid_, Chunks(60, 120), kResolution);
  ExpectOwnerSeries(warm, 60, 120);
  EXPECT_EQ(counted_->calls(), 1u);  // the series itself

  // A series sliding forward by one window opens only the new window.
  counted_->Reset();
  auto slid = consumer->GetStatSeries(uuid_, Chunks(54, 114), kResolution);
  ExpectOwnerSeries(slid, 54, 114);
  EXPECT_EQ(counted_->calls(MessageType::kGetEnvelopes), 1u);
}

TEST_F(ConsumerKeyPathTest, TokenSeriesTakesOneRpc) {
  auto consumer = Consumer(1);
  ASSERT_TRUE(consumer->GetStatSeries(uuid_, Chunks(0, 60), 6).ok());

  counted_->Reset();
  auto series = consumer->GetStatSeries(uuid_, Chunks(60, 120), kResolution);
  ExpectOwnerSeries(series, 60, 120);
  EXPECT_EQ(counted_->calls(), 1u);

  // Cursors also seek backwards, and serve ranges and raw reads.
  auto back = consumer->GetStatSeries(uuid_, Chunks(0, 60), kResolution);
  ExpectOwnerSeries(back, 0, 60);
  auto range = consumer->GetStatRange(uuid_, Chunks(7, 93));
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->stats.Sum().value(),
            owner_.GetStatRange(uuid_, Chunks(7, 93))->stats.Sum().value());
  auto points = consumer->GetRange(uuid_, Chunks(10, 14));
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_EQ(points->size(), 4u);
}

TEST_F(ConsumerKeyPathTest, LyingEnvelopeResponsesFailAndCacheNothing) {
  struct Case {
    const char* name;
    std::function<void(net::GetEnvelopesResponse&)> rewrite;
  };
  const Case cases[] = {
      {"one envelope short",
       [](net::GetEnvelopesResponse& r) { r.envelopes.pop_back(); }},
      {"one envelope extra",
       [](net::GetEnvelopesResponse& r) {
         r.envelopes.push_back(r.envelopes.back());
       }},
      {"first_index shifted",
       [](net::GetEnvelopesResponse& r) { ++r.first_index; }},
      {"envelopes rotated",
       [](net::GetEnvelopesResponse& r) {
         std::rotate(r.envelopes.begin(), r.envelopes.begin() + 1,
                     r.envelopes.end());
       }},
      {"envelope byte flipped",
       [](net::GetEnvelopesResponse& r) { r.envelopes[3].back() ^= 1; }},
  };
  for (const Case& c : cases) {
    auto consumer = Consumer(kResolution);
    envelopes_->set_rewrite(c.rewrite);
    auto lied = consumer->GetStatSeries(uuid_, Chunks(60, 120), kResolution);
    EXPECT_EQ(lied.status().code(), StatusCode::kDataLoss) << c.name;
    // The honest answer decrypts: no leaf from the lie stayed behind.
    envelopes_->set_rewrite(nullptr);
    auto honest =
        consumer->GetStatSeries(uuid_, Chunks(60, 120), kResolution);
    ExpectOwnerSeries(honest, 60, 120);
  }
}

TEST_F(ConsumerKeyPathTest, ForgedGrantsAreSkipped) {
  // Anyone can seal a grant to the consumer's public key. Each of these
  // would crash or misbehave at query time (a zero resolution divides by
  // zero, a bad height or token depth is an undefined shift).
  AccessGrant full;
  full.stream_uuid = uuid_;
  full.kind = GrantKind::kFullResolution;
  full.first_chunk = 0;
  full.last_chunk = kChunks;
  full.tree_height = 30;
  full.tokens = {crypto::AccessToken{20, 0, crypto::RandomKey128()}};
  AccessGrant res;
  res.stream_uuid = uuid_;
  res.kind = GrantKind::kResolution;
  res.first_chunk = 0;
  res.last_chunk = kChunks;
  res.resolution_chunks = kResolution;
  res.window_lower = 0;
  res.window_upper = kChunks / kResolution;

  std::vector<AccessGrant> forged;
  forged.push_back(full);
  forged.back().kind = static_cast<GrantKind>(7);
  for (uint32_t height : {0u, 64u, 200u}) {
    forged.push_back(full);
    forged.back().tree_height = height;
  }
  forged.push_back(full);
  forged.back().tokens[0].depth = 31;
  forged.push_back(full);
  forged.back().tokens[0].index = uint64_t{1} << 20;
  forged.push_back(res);
  forged.back().resolution_chunks = 0;
  forged.push_back(res);
  forged.back().window_lower = forged.back().window_upper + 1;

  Principal p{"target", crypto::GenerateBoxKeyPair()};
  uint64_t grant_id = 1;
  for (const auto& g : forged) {
    EXPECT_EQ(AccessGrant::Decode(g.Encode()).status().code(),
              StatusCode::kDataLoss);
    net::PutGrantRequest req{uuid_, p.id, grant_id++,
                             g.SealTo(p.keys.public_key).value()};
    ASSERT_TRUE(transport_->Call(MessageType::kPutGrant, req.Encode()).ok());
  }
  ConsumerClient consumer(transport_, p);
  EXPECT_EQ(consumer.FetchGrants().value(), 0);
  EXPECT_EQ(consumer.GetStatRange(uuid_, Chunks(0, 6)).status().code(),
            StatusCode::kPermissionDenied);

  // A genuine grant beside them is still held and used.
  ASSERT_TRUE(owner_
                  .GrantAccess(uuid_, p.id, p.keys.public_key,
                               Chunks(0, 60), kResolution)
                  .ok());
  EXPECT_EQ(consumer.FetchGrants().value(), 1);
  EXPECT_TRUE(consumer.GetStatRange(uuid_, Chunks(0, 6)).ok());
  EXPECT_EQ(consumer.GetStatRange(uuid_, Chunks(60, 66)).status().code(),
            StatusCode::kPermissionDenied);
}

}  // namespace
}  // namespace tc
