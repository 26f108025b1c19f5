// k-ary time-partitioned aggregation tree (§4.5, Fig 4).
//
// The server builds this index bottom-up over encrypted chunk digests:
// a node at level L, index N stores up to k digest entries, where entry j
// aggregates chunks [(N*k + j) * k^L, (N*k + j + 1) * k^L). Level 0 entries
// are the raw chunk digests; when the k entries of a node are complete their
// aggregate is appended to the parent. Time series ingest is in-order
// append-only (§4.5), which makes the update path a single rightmost spine.
//
// Range queries drill down both ends of the range and use whole higher-level
// entries in the middle: O(2(k-1) log_k n) digest additions worst case.
//
// Nodes live in a KvStore under computed identifiers (stream, level, index)
// — no stored references (§4.6). Writes are append-only: each new entry is
// one KvStore::Append of blob_size() bytes to its node's key, so an ingested
// chunk costs O(1) store bytes, plus one more entry per level whenever it
// completes a node. The writer keeps every level's open rightmost node
// resident (the spine) to aggregate a node the moment it fills, without
// reading it back. A node never changes once full (sealed); only sealed
// nodes enter the LRU cache (§5), which hands them out as shared buffers.
// Queries read the open nodes from the store.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "index/digest_cipher.hpp"
#include "store/kv_store.hpp"
#include "store/lru_cache.hpp"

namespace tc::index {

struct AggTreeOptions {
  uint32_t fanout = 64;        // the paper's default k (§6 setup)
  size_t cache_bytes = 256 << 20;
};

/// Query-side statistics for benchmarks (cache behaviour, adds performed).
struct QueryStats {
  uint64_t nodes_fetched = 0;
  uint64_t cache_hits = 0;
  uint64_t digest_adds = 0;
};

class AggTree {
 public:
  /// `prefix` namespaces this tree's keys in the shared store (stream id).
  AggTree(std::shared_ptr<store::KvStore> kv, std::string prefix,
          std::shared_ptr<const DigestCipher> cipher, AggTreeOptions options);

  /// Append chunk `index`'s encrypted digest. Indices must arrive in order
  /// starting at 0 (in-order append-only workload, §4.5). The in-memory
  /// position advances only once every store write succeeded. After a
  /// failure, retry the same index with the same digest: the retry skips
  /// the entries already written, so each lands exactly once.
  Status Append(uint64_t index, BytesView digest_blob);

  /// Rediscover the append position from the backing store (server restart
  /// over a durable KV) and load the resident spine. Probes level-0 node
  /// keys — O(log n) Contains calls — then reads one node per level. A
  /// crash between a node's last entry and its parent entry left that
  /// parent entry unwritten; Recover writes it, once.
  Status Recover();

  /// Re-sync with a store that advanced underneath this handle (a replica
  /// store receiving shipped mutations) without writing to it. Drops every
  /// cached node — sealed nodes never change in place, but a snapshot
  /// re-seed or a shipped decay can replace or delete them — and reloads
  /// the position and spine as Recover does. A store caught between a
  /// node's last entry and its parent entry is served up to the chunk
  /// before, until the parent entry arrives. On failure the handle keeps
  /// serving the position it had.
  Status Refresh();

  /// Aggregate over chunk range [first, last). Returns the encrypted
  /// aggregate blob; the caller decrypts with the outer keys.
  Result<Bytes> Query(uint64_t first, uint64_t last) const;

  /// Query variant that also reports fetch/add counts.
  Result<Bytes> Query(uint64_t first, uint64_t last, QueryStats& stats) const;

  /// The stored level-0 digest blob of one chunk (witnessed reads need the
  /// exact ciphertext bytes the producer uploaded). NotFound after decay.
  Result<Bytes> LeafDigest(uint64_t index) const;

  /// Drop a leaf-level digest range [first, last) — data decay support.
  /// Higher-level aggregates are retained, so coarse statistics over the
  /// decayed range still answer (the paper's retention/rollup model).
  Status DecayLeafRange(uint64_t first, uint64_t last);

  uint64_t num_chunks() const { return next_index_; }
  uint32_t fanout() const { return options_.fanout; }

  /// Approximate in-memory index size if fully resident: total digest bytes
  /// across all tree entries (Table 2 "Index - Size" column).
  uint64_t IndexBytes() const;

  /// Cache statistics (Fig 7 small-cache experiment).
  const store::LruCache& cache() const { return cache_; }

 private:
  using Node = store::LruCache::Value;

  std::string NodeKey(uint32_t level, uint64_t node_index) const;
  /// Index of the open (not yet full) node at `level`; nodes below it are
  /// sealed.
  uint64_t OpenNodeIndex(uint32_t level) const;
  /// A sealed node comes from the cache (filled on a miss); the open node
  /// is read from the store uncached, since it still grows.
  Result<Node> LoadNode(uint32_t level, uint64_t node_index,
                        QueryStats* stats) const;
  /// An empty node buffer with room for k entries.
  std::shared_ptr<Bytes> NewNode() const;
  /// Recover() (repair = true) and Refresh() (repair = false).
  Status LoadSpine(bool repair);
  /// Read the spine of a tree holding `n` chunks into `spine`. Returns false
  /// when the last sealed node of a level lacks its parent entry and
  /// `repair` is off; with `repair` the entry is computed and appended.
  Result<bool> ReadSpine(uint64_t n, bool repair,
                         std::vector<std::shared_ptr<Bytes>>& spine);

  /// Aggregate entries [from, to) of a loaded node into `acc` (or move the
  /// first entry into acc when empty).
  Status FoldEntries(BytesView node, size_t from, size_t to, Bytes& acc,
                     QueryStats* stats) const;

  std::shared_ptr<store::KvStore> kv_;
  std::string prefix_;
  std::shared_ptr<const DigestCipher> cipher_;
  AggTreeOptions options_;
  mutable store::LruCache cache_;
  uint64_t next_index_ = 0;
  // spine_[L]: the entries of level L's open node, as written to the store.
  std::vector<std::shared_ptr<Bytes>> spine_;
  // The entries one Append writes: cascade_[0] is the chunk's digest and
  // cascade_[L + 1] the aggregate of the level-L node it completes. When a
  // store write fails, the first cascade_written_ of them are in the store
  // and the retry resumes after them.
  std::vector<Bytes> cascade_;
  size_t cascade_written_ = 0;
};

}  // namespace tc::index
