#include "client/key_manager.hpp"

#include <cstdlib>

#include "common/io.hpp"
#include "crypto/sha256.hpp"

namespace tc::client {

namespace {
/// Domain-separated subseed derivation from the master seed.
crypto::Key128 Subseed(const crypto::Key128& master, std::string_view label,
                       uint64_t param) {
  BinaryWriter w;
  w.PutString(label);
  w.PutU64(param);
  auto h = crypto::HmacSha256(master, w.data());
  crypto::Key128 k;
  std::copy(h.begin(), h.begin() + k.size(), k.begin());
  return k;
}

crypto::Key128 Subseed2(const crypto::Key128& master, std::string_view label,
                        uint64_t param) {
  BinaryWriter w;
  w.PutString(label);
  w.PutU64(param);
  auto h = crypto::HmacSha256(master, w.data());
  crypto::Key128 k;
  std::copy(h.begin() + 16, h.end(), k.begin());
  return k;
}
}  // namespace

StreamKeys::StreamKeys(crypto::Key128 master_seed, StreamKeysConfig config)
    : master_(master_seed),
      config_(config),
      tree_(std::make_shared<crypto::GgmTree>(
          Subseed(master_seed, "ggm-root", 0), config.tree_height)),
      iter_(tree_->DeriveNode(0, 0).value(), 0, 0, config.tree_height, 0) {}

crypto::Key128 StreamKeys::Leaf(uint64_t i) {
  // A refused seek leaves the previous leaf in place; handing that out as
  // leaf i would key a chunk with a stale (or public) value, so stop.
  if (!iter_.Seek(i)) std::abort();
  return iter_.Current();
}

crypto::Key128 StreamKeys::PayloadKey(uint64_t chunk) {
  crypto::Key128 leaf_i = Leaf(chunk);
  crypto::Key128 leaf_n = Leaf(chunk + 1);
  return crypto::ChunkPayloadKey(leaf_i, leaf_n);
}

const crypto::DualKeyRegression& StreamKeys::Resolution(
    uint64_t resolution_chunks) {
  auto it = resolutions_.find(resolution_chunks);
  if (it == resolutions_.end()) {
    it = resolutions_
             .emplace(resolution_chunks,
                      std::make_unique<crypto::DualKeyRegression>(
                          Subseed(master_, "res-primary", resolution_chunks),
                          Subseed2(master_, "res-secondary", resolution_chunks),
                          config_.resolution_stream_length))
             .first;
  }
  return *it->second;
}

Result<Bytes> StreamKeys::MakeEnvelope(uint64_t resolution_chunks,
                                       uint64_t window) {
  uint64_t leaf = 0;
  if (__builtin_mul_overflow(window, resolution_chunks, &leaf) ||
      leaf >= tree_->num_leaves()) {
    return OutOfRange("envelope window lies beyond the keystream");
  }
  const auto& kr = Resolution(resolution_chunks);
  TC_ASSIGN_OR_RETURN(crypto::Key128 res_key, kr.DeriveKey(window));
  crypto::Key128 outer_leaf = Leaf(leaf);
  return crypto::GcmSeal(res_key, outer_leaf);
}

Result<crypto::Key128> StreamKeys::OpenEnvelope(const crypto::Key128& res_key,
                                                BytesView envelope) {
  TC_ASSIGN_OR_RETURN(Bytes plain, crypto::GcmOpen(res_key, envelope));
  if (plain.size() != 16) return DataLoss("envelope payload is not a key");
  crypto::Key128 leaf;
  std::copy(plain.begin(), plain.end(), leaf.begin());
  return leaf;
}

}  // namespace tc::client
