// Client-layer unit tests: grant serialization/sealing, StreamKeys
// determinism and envelope round trips, multi-stream decrypt helper.
#include <gtest/gtest.h>

#include "client/grants.hpp"
#include "client/key_manager.hpp"
#include "client/owner.hpp"

namespace tc::client {
namespace {

AccessGrant SampleFullGrant() {
  AccessGrant g;
  g.stream_uuid = 42;
  g.kind = GrantKind::kFullResolution;
  g.first_chunk = 100;
  g.last_chunk = 200;
  g.tree_height = 30;
  g.tokens = {crypto::AccessToken{5, 3, crypto::RandomKey128()},
              crypto::AccessToken{7, 99, crypto::RandomKey128()}};
  return g;
}

AccessGrant SampleResolutionGrant() {
  AccessGrant g;
  g.stream_uuid = 7;
  g.kind = GrantKind::kResolution;
  g.first_chunk = 0;
  g.last_chunk = 600;
  g.resolution_chunks = 6;
  g.window_lower = 0;
  g.window_upper = 100;
  g.primary_state = crypto::RandomKey128();
  g.secondary_state = crypto::RandomKey128();
  return g;
}

TEST(AccessGrantCodec, FullGrantRoundTrip) {
  AccessGrant g = SampleFullGrant();
  auto back = AccessGrant::Decode(g.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->stream_uuid, 42u);
  EXPECT_EQ(back->kind, GrantKind::kFullResolution);
  ASSERT_EQ(back->tokens.size(), 2u);
  EXPECT_EQ(back->tokens[1], g.tokens[1]);
}

TEST(AccessGrantCodec, ResolutionGrantRoundTrip) {
  AccessGrant g = SampleResolutionGrant();
  auto back = AccessGrant::Decode(g.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->resolution_chunks, 6u);
  EXPECT_EQ(back->primary_state, g.primary_state);
  EXPECT_EQ(back->secondary_state, g.secondary_state);
}

TEST(AccessGrantCodec, TruncatedFails) {
  Bytes enc = SampleFullGrant().Encode();
  enc.resize(enc.size() - 10);
  EXPECT_FALSE(AccessGrant::Decode(enc).ok());
}

TEST(AccessGrantSealing, OnlyRecipientOpens) {
  AccessGrant g = SampleFullGrant();
  auto alice = crypto::GenerateBoxKeyPair();
  auto eve = crypto::GenerateBoxKeyPair();
  auto sealed = g.SealTo(alice.public_key);
  ASSERT_TRUE(sealed.ok());
  auto opened = AccessGrant::Open(alice, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->stream_uuid, g.stream_uuid);
  EXPECT_FALSE(AccessGrant::Open(eve, *sealed).ok());
}

TEST(AccessGrantViews, KindMismatchIsError) {
  EXPECT_FALSE(SampleFullGrant().MakeResolutionView().ok());
  EXPECT_FALSE(SampleResolutionGrant().MakeTokenSet().ok());
}

TEST(StreamKeysTest, DeterministicFromMasterSeed) {
  crypto::Key128 seed = crypto::RandomKey128();
  StreamKeys a(seed), b(seed);
  for (uint64_t i : {0ull, 1ull, 77ull, 1000ull}) {
    EXPECT_EQ(a.Leaf(i), b.Leaf(i)) << i;
  }
  EXPECT_EQ(a.PayloadKey(5), b.PayloadKey(5));
}

TEST(StreamKeysTest, SequentialAndRandomAccessAgree) {
  crypto::Key128 seed = crypto::RandomKey128();
  StreamKeys seq(seed), rnd(seed);
  // Sequential walk.
  std::vector<crypto::Key128> walked;
  for (uint64_t i = 0; i < 50; ++i) walked.push_back(seq.Leaf(i));
  // Random access in shuffled order.
  crypto::DeterministicRng rng(5);
  for (int t = 0; t < 50; ++t) {
    uint64_t i = rng.NextBelow(50);
    EXPECT_EQ(rnd.Leaf(i), walked[i]) << i;
  }
}

TEST(StreamKeysTest, LeafMatchesGgmTreeDirectly) {
  crypto::Key128 seed = crypto::RandomKey128();
  StreamKeys keys(seed);
  // The last three walk backwards across the height-30 tree's midpoint,
  // where the leaf paths share only the root.
  for (uint64_t i : {3ull, 4ull, 100ull, (1ull << 29) + 1, 1ull << 29,
                     (1ull << 29) - 1}) {
    EXPECT_EQ(keys.Leaf(i), keys.tree().DeriveLeaf(i).value());
  }
}

TEST(StreamKeysTest, ResolutionKeystreamsAreIndependent) {
  StreamKeys keys(crypto::RandomKey128());
  auto k6 = keys.Resolution(6).DeriveKey(0).value();
  auto k60 = keys.Resolution(60).DeriveKey(0).value();
  EXPECT_NE(k6, k60);
}

TEST(StreamKeysTest, EnvelopeRoundTrip) {
  StreamKeys keys(crypto::RandomKey128());
  auto envelope = keys.MakeEnvelope(/*resolution=*/6, /*window=*/10);
  ASSERT_TRUE(envelope.ok());
  auto res_key = keys.Resolution(6).DeriveKey(10).value();
  auto leaf = StreamKeys::OpenEnvelope(res_key, *envelope);
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(*leaf, keys.Leaf(60));  // outer leaf at window*resolution
}

TEST(StreamKeysTest, BoundsStopAtTheEndOfTheKeystream) {
  // A height-2 keystream has leaves 0..3: chunk 2 is the last one whose two
  // leaves exist, and an envelope's outer leaf must be one of the four.
  StreamKeys keys(crypto::RandomKey128(), {.tree_height = 2});
  EXPECT_TRUE(keys.HasChunk(2));
  EXPECT_FALSE(keys.HasChunk(3));
  EXPECT_FALSE(keys.HasChunk(~uint64_t{0}));
  EXPECT_TRUE(keys.MakeEnvelope(/*resolution=*/3, /*window=*/1).ok());
  EXPECT_EQ(keys.MakeEnvelope(2, 2).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(keys.MakeEnvelope(2, uint64_t{1} << 63).status().code(),
            StatusCode::kOutOfRange);  // window * resolution overflows
}

TEST(StreamKeysTest, EnvelopeRejectsWrongKey) {
  StreamKeys keys(crypto::RandomKey128());
  auto envelope = keys.MakeEnvelope(6, 10);
  auto wrong = keys.Resolution(6).DeriveKey(11).value();
  EXPECT_FALSE(StreamKeys::OpenEnvelope(wrong, *envelope).ok());
}

TEST(DecryptStatBlobTest, MultiStreamKeySums) {
  // Two HEAC streams aggregated by the server = field-wise sum; decryption
  // subtracts both first-keys and adds both last-keys.
  net::StreamConfig config;
  config.schema.with_sum = true;
  config.schema.with_count = false;
  config.cipher = net::CipherKind::kHeac;

  StreamKeys a(crypto::RandomKey128()), b(crypto::RandomKey128());
  crypto::HeacCodec codec(1);
  auto ca = codec.Encrypt(std::vector<uint64_t>{10}, 0, a.Leaf(0), a.Leaf(1));
  auto cb = codec.Encrypt(std::vector<uint64_t>{32}, 0, b.Leaf(0), b.Leaf(1));
  Bytes blob(8);
  uint64_t sum = ca.fields[0] + cb.fields[0];
  std::memcpy(blob.data(), &sum, 8);

  std::vector<std::pair<crypto::Key128, crypto::Key128>> pairs = {
      {a.Leaf(0), a.Leaf(1)}, {b.Leaf(0), b.Leaf(1)}};
  auto fields = DecryptStatBlob(config, blob, pairs);
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], 42u);
}

TEST(DecryptStatBlobTest, RejectsNonHeacAndBadSizes) {
  net::StreamConfig config;
  config.schema.with_sum = true;
  config.cipher = net::CipherKind::kPlain;
  EXPECT_FALSE(DecryptStatBlob(config, Bytes(8, 0), {}).ok());
  config.cipher = net::CipherKind::kHeac;
  EXPECT_FALSE(DecryptStatBlob(config, Bytes(7, 0), {}).ok());
}

}  // namespace
}  // namespace tc::client
