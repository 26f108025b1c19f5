// Owner-side key management (§4.2.3, §4.4.2): the per-stream GGM key tree,
// one seekable leaf path that serves every leaf the owner derives (ingest,
// payload keys, query endpoints, envelopes), and the resolution keystreams
// (dual key regression) with their envelope publication.
#pragma once

#include <map>
#include <memory>

#include "common/secret.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/heac.hpp"
#include "crypto/key_regression.hpp"

namespace tc::client {

struct StreamKeysConfig {
  uint32_t tree_height = 30;            // ~10^9 keys (the §6 setup)
  uint64_t resolution_stream_length = 1 << 16;  // windows per resolution
};

/// All secret material for one stream the owner writes. Deterministic from
/// (master_seed, config): exportable and re-importable.
class StreamKeys {
 public:
  StreamKeys(crypto::Key128 master_seed, StreamKeysConfig config = {});
  ~StreamKeys() {
    SecureZero(master_);
    // tree_, iter_ and resolutions_ scrub themselves: GgmTree, the
    // iterator's PathEntry stack and HashChain all zeroize on destruction.
  }

  const crypto::GgmTree& tree() const { return *tree_; }
  std::shared_ptr<const crypto::GgmTree> shared_tree() const { return tree_; }
  uint32_t tree_height() const { return config_.tree_height; }

  /// Leaf for chunk i: a seek of the stream's one leaf path. Repeated and
  /// sequential calls (i, i+1, ...) are amortized O(1); a random leaf costs
  /// one PRG call per level below the prefix it shares with the last leaf.
  /// Requires i < tree().num_leaves(): indices from outside the owner are
  /// bounded first, and an index beyond the keystream aborts.
  crypto::Key128 Leaf(uint64_t i);

  /// Whether both leaves of chunk i (i and i+1) lie in the keystream, so the
  /// chunk can be sealed or opened.
  bool HasChunk(uint64_t chunk) const {
    return chunk < tree_->num_leaves() - 1;
  }

  /// Per-chunk payload key H(k_i - k_{i+1}) (§4.3). Requires HasChunk(chunk).
  crypto::Key128 PayloadKey(uint64_t chunk);

  /// The dual key regression for a resolution (created lazily; deterministic
  /// from the master seed so re-opened streams agree).
  const crypto::DualKeyRegression& Resolution(uint64_t resolution_chunks);

  /// Envelope for window j of a resolution: enc_{k̄_j}(leaf(j*r)) (§4.4.2).
  Result<Bytes> MakeEnvelope(uint64_t resolution_chunks, uint64_t window);

  /// Open an envelope with a derived resolution key (consumer side).
  static Result<crypto::Key128> OpenEnvelope(const crypto::Key128& res_key,
                                             BytesView envelope);

  const StreamKeysConfig& config() const { return config_; }
  const crypto::Key128& master_seed() const { return master_; }

 private:
  TC_SECRET crypto::Key128 master_;
  StreamKeysConfig config_;
  std::shared_ptr<crypto::GgmTree> tree_;
  crypto::SequentialLeafIterator iter_;  // over the whole keystream
  std::map<uint64_t, std::unique_ptr<crypto::DualKeyRegression>> resolutions_;
};

}  // namespace tc::client
