#include "index/agg_tree.hpp"

#include <algorithm>
#include <cassert>

namespace tc::index {

AggTree::AggTree(std::shared_ptr<store::KvStore> kv, std::string prefix,
                 std::shared_ptr<const DigestCipher> cipher,
                 AggTreeOptions options)
    : kv_(std::move(kv)),
      prefix_(std::move(prefix)),
      cipher_(std::move(cipher)),
      options_(options),
      cache_(options.cache_bytes) {
  assert(options_.fanout >= 2);
}

std::string AggTree::NodeKey(uint32_t level, uint64_t node_index) const {
  // Identifier computed on the fly from the node's coordinates (§4.6).
  std::string key = prefix_;
  key += "/L";
  key += std::to_string(level);
  key += "/";
  key += std::to_string(node_index);
  return key;
}

uint64_t AggTree::OpenNodeIndex(uint32_t level) const {
  uint64_t entries = next_index_;  // entries at `level`
  for (uint32_t l = 0; l < level; ++l) entries /= options_.fanout;
  return entries / options_.fanout;
}

Result<AggTree::Node> AggTree::LoadNode(uint32_t level, uint64_t node_index,
                                        QueryStats* stats) const {
  if (stats != nullptr) ++stats->nodes_fetched;
  std::string key = NodeKey(level, node_index);
  const bool sealed = node_index < OpenNodeIndex(level);
  if (sealed) {
    if (Node cached = cache_.Get(key)) {
      if (stats != nullptr) ++stats->cache_hits;
      return cached;
    }
  }
  TC_ASSIGN_OR_RETURN(Bytes stored, kv_->Get(key));
  auto node = std::make_shared<const Bytes>(std::move(stored));
  if (sealed) cache_.Put(key, node);
  return node;
}

std::shared_ptr<Bytes> AggTree::NewNode() const {
  auto node = std::make_shared<Bytes>();
  node->reserve(size_t{options_.fanout} * cipher_->blob_size());
  return node;
}

Status AggTree::Append(uint64_t index, BytesView digest_blob) {
  if (index != next_index_) {
    return FailedPrecondition(
        "append-only index: expected chunk " + std::to_string(next_index_) +
        ", got " + std::to_string(index));
  }
  if (digest_blob.size() != cipher_->blob_size()) {
    return InvalidArgument("digest blob size mismatch");
  }
  const uint32_t k = options_.fanout;
  const size_t bs = cipher_->blob_size();

  if (cascade_written_ > 0) {
    // A retry after a failed store write: cascade_ was computed from this
    // chunk's digest and its first entries are already stored.
    if (!std::equal(digest_blob.begin(), digest_blob.end(),
                    cascade_[0].begin(), cascade_[0].end())) {
      return FailedPrecondition("chunk " + std::to_string(index) +
                                " is partly indexed with another digest");
    }
  } else {
    // The entry at level 0, then one level up for every node it completes:
    // the completed node's aggregate, from its resident entries.
    cascade_.assign(1, Bytes(digest_blob.begin(), digest_blob.end()));
    for (size_t level = 0;
         level < spine_.size() && spine_[level]->size() == (k - 1) * bs;
         ++level) {
      Bytes agg;
      TC_RETURN_IF_ERROR(FoldEntries(*spine_[level], 0, k - 1, agg, nullptr));
      TC_RETURN_IF_ERROR(
          cipher_->Add(std::span<uint8_t>(agg), cascade_.back()));
      cascade_.push_back(std::move(agg));
    }
  }

  // Bottom-up, so the store never holds a parent entry whose child node is
  // incomplete. Each write is one entry appended to its node's key.
  uint64_t pos = index;  // the entry's position at `level`
  for (uint32_t level = 0; level < cascade_.size(); ++level, pos /= k) {
    if (level < cascade_written_) continue;
    TC_RETURN_IF_ERROR(kv_->Append(NodeKey(level, pos / k), cascade_[level]));
    ++cascade_written_;
  }

  // Every write landed: move the spine and the position forward.
  pos = index;
  for (uint32_t level = 0; level < cascade_.size(); ++level, pos /= k) {
    if (level == spine_.size()) spine_.push_back(NewNode());
    tc::Append(*spine_[level], cascade_[level]);
    if (pos % k == k - 1) {
      // Sealed: it never changes again, so the cache can hand it out.
      cache_.Put(NodeKey(level, pos / k), std::move(spine_[level]));
      spine_[level] = NewNode();
    }
  }
  cascade_written_ = 0;
  next_index_ = index + 1;
  return Status::Ok();
}

Status AggTree::FoldEntries(BytesView node, size_t from, size_t to,
                            Bytes& acc, QueryStats* stats) const {
  size_t bs = cipher_->blob_size();
  if (to * bs > node.size()) {
    return Internal("index node shorter than expected");
  }
  for (size_t e = from; e < to; ++e) {
    BytesView entry = node.subspan(e * bs, bs);
    if (acc.empty()) {
      acc.assign(entry.begin(), entry.end());
    } else {
      TC_RETURN_IF_ERROR(cipher_->Add(std::span<uint8_t>(acc), entry));
      if (stats != nullptr) ++stats->digest_adds;
    }
  }
  return Status::Ok();
}

Result<Bytes> AggTree::Query(uint64_t first, uint64_t last) const {
  QueryStats stats;
  return Query(first, last, stats);
}

Result<Bytes> AggTree::Query(uint64_t first, uint64_t last,
                             QueryStats& stats) const {
  if (first >= last) return InvalidArgument("empty query range");
  if (last > next_index_) {
    return OutOfRange("query range exceeds ingested chunks (" +
                      std::to_string(next_index_) + ")");
  }
  const uint32_t k = options_.fanout;

  // Collect covering pieces in left-to-right order per level; because HEAC
  // requires contiguous addition, fold left pieces into `left_acc` (ordered
  // ascending) and right pieces into a stack folded at the end.
  //
  // Standard k-ary segment walk: at each level clip partial nodes at both
  // ends, then ascend. Left pieces are emitted in ascending chunk order;
  // right pieces in descending order (they are collected while ascending,
  // so fold them in reverse at the end).
  Bytes left_acc;
  std::vector<Bytes> right_pieces;

  uint64_t lo = first, hi = last;
  uint32_t level = 0;
  while (lo < hi) {
    uint64_t node_lo = lo / k;
    uint64_t node_hi = (hi - 1) / k;
    if (node_lo == node_hi) {
      // Remaining range fits in one node.
      TC_ASSIGN_OR_RETURN(Node node, LoadNode(level, node_lo, &stats));
      TC_RETURN_IF_ERROR(
          FoldEntries(*node, lo % k, (hi - 1) % k + 1, left_acc, &stats));
      break;
    }
    if (lo % k != 0) {
      TC_ASSIGN_OR_RETURN(Node node, LoadNode(level, node_lo, &stats));
      TC_RETURN_IF_ERROR(FoldEntries(*node, lo % k, k, left_acc, &stats));
      lo = (node_lo + 1) * k;
    }
    if (hi % k != 0) {
      TC_ASSIGN_OR_RETURN(Node node, LoadNode(level, node_hi, &stats));
      Bytes piece;
      TC_RETURN_IF_ERROR(FoldEntries(*node, 0, hi % k, piece, &stats));
      right_pieces.push_back(std::move(piece));
      hi = node_hi * k;
    }
    lo /= k;
    hi /= k;
    ++level;
  }

  // left_acc covers [first, X); right_pieces (reversed) cover [X, last)
  // in ascending order.
  for (auto it = right_pieces.rbegin(); it != right_pieces.rend(); ++it) {
    if (left_acc.empty()) {
      left_acc = std::move(*it);
    } else {
      TC_RETURN_IF_ERROR(cipher_->Add(std::span<uint8_t>(left_acc), *it));
      ++stats.digest_adds;
    }
  }
  if (left_acc.empty()) return Internal("query produced no digest");
  return left_acc;
}

Status AggTree::Recover() { return LoadSpine(/*repair=*/true); }

Status AggTree::Refresh() {
  cache_.Clear();
  return LoadSpine(/*repair=*/false);
}

Status AggTree::LoadSpine(bool repair) {
  // The probe assumes level-0 nodes form a contiguous prefix, which decay
  // (DecayLeafRange) can break: recover *before* re-applying retention
  // policies, or persist the decay watermark externally.
  uint64_t n = 0;
  if (kv_->Contains(NodeKey(0, 0))) {
    // Exponential then binary search for the last existing level-0 node.
    uint64_t lo = 0, hi = 1;
    while (kv_->Contains(NodeKey(0, hi))) {
      lo = hi;
      hi *= 2;
    }
    while (lo + 1 < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (kv_->Contains(NodeKey(0, mid))) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    TC_ASSIGN_OR_RETURN(Bytes node, kv_->Get(NodeKey(0, lo)));
    if (node.empty() || node.size() % cipher_->blob_size() != 0 ||
        node.size() / cipher_->blob_size() > options_.fanout) {
      return DataLoss("recovered index node has torn size");
    }
    n = lo * options_.fanout + node.size() / cipher_->blob_size();
  }
  std::vector<std::shared_ptr<Bytes>> spine;
  TC_ASSIGN_OR_RETURN(bool complete, ReadSpine(n, repair, spine));
  if (!complete) {
    // Only the newest chunk's cascade can be cut short; without it the
    // tree is whole.
    --n;
    TC_ASSIGN_OR_RETURN(complete, ReadSpine(n, repair, spine));
    if (!complete) return DataLoss("index is missing parent entries");
  }
  spine_ = std::move(spine);
  next_index_ = n;
  cascade_written_ = 0;
  return Status::Ok();
}

Result<bool> AggTree::ReadSpine(uint64_t n, bool repair,
                                std::vector<std::shared_ptr<Bytes>>& spine) {
  const uint32_t k = options_.fanout;
  const size_t bs = cipher_->blob_size();
  spine.clear();
  Bytes below;  // the previous level's last node
  for (uint64_t entries = n; entries > 0; entries /= k) {
    const auto level = static_cast<uint32_t>(spine.size());
    const uint64_t last = entries - 1;  // this level's last entry
    const std::string key = NodeKey(level, last / k);
    Bytes node;
    if (auto stored = kv_->Get(key); stored.ok()) {
      node = std::move(*stored);
    } else if (stored.status().code() != StatusCode::kNotFound) {
      return stored.status();
    }
    // The writer's store holds exactly the entries `n` implies, or one
    // less (below). A replica's may also hold part of a newer chunk's
    // cascade.
    const size_t stored_entries = node.size() / bs;
    if (node.size() % bs != 0 || stored_entries < last % k ||
        (repair && stored_entries > last % k + 1)) {
      return DataLoss("index node " + key + " has torn size");
    }
    if (stored_entries == last % k) {
      // Entry `last` aggregates the previous level's last node, which is
      // sealed and was written first: a crash or failed write in between.
      if (level == 0 || below.size() != k * bs) {
        return DataLoss("index node " + key + " lacks an entry");
      }
      if (!repair) return false;
      Bytes agg;
      TC_RETURN_IF_ERROR(FoldEntries(below, 0, k, agg, nullptr));
      TC_RETURN_IF_ERROR(kv_->Append(key, agg));
      tc::Append(node, agg);
    }
    auto open = NewNode();
    if (entries % k != 0) {
      open->assign(node.begin(), node.begin() + (entries % k) * bs);
    }
    spine.push_back(std::move(open));
    below = std::move(node);
  }
  return true;
}

Result<Bytes> AggTree::LeafDigest(uint64_t index) const {
  if (index >= next_index_) return OutOfRange("chunk not ingested");
  const uint32_t k = options_.fanout;
  TC_ASSIGN_OR_RETURN(Node node, LoadNode(0, index / k, nullptr));
  size_t bs = cipher_->blob_size();
  size_t entry = index % k;
  if ((entry + 1) * bs > node->size()) {
    return Internal("leaf node shorter than expected");
  }
  BytesView view = BytesView(*node).subspan(entry * bs, bs);
  return Bytes(view.begin(), view.end());
}

Status AggTree::DecayLeafRange(uint64_t first, uint64_t last) {
  if (first >= last || last > next_index_) {
    return InvalidArgument("bad decay range");
  }
  const uint32_t k = options_.fanout;
  // Only drop level-0 nodes fully inside the range whose parents captured
  // their aggregate (i.e. complete nodes).
  uint64_t node_first = (first + k - 1) / k;
  uint64_t node_last = last / k;
  for (uint64_t n = node_first; n < node_last; ++n) {
    // Parent aggregate exists only if the node completed.
    if ((n + 1) * k <= next_index_) {
      std::string key = NodeKey(0, n);
      cache_.Erase(key);
      Status s = kv_->Delete(key);
      if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
    }
  }
  return Status::Ok();
}

uint64_t AggTree::IndexBytes() const {
  // Sum over levels of ceil(n / k^level) entries, each blob_size() bytes.
  const uint32_t k = options_.fanout;
  uint64_t total = 0;
  uint64_t entries = next_index_;
  while (entries > 0) {
    total += entries * cipher_->blob_size();
    entries /= k;
  }
  return total;
}

}  // namespace tc::index
