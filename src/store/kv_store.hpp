// Key-value storage abstraction — TimeCrypt's persistence layer (§4.6:
// "TimeCrypt can be plugged-in with any scalable key-value store"). The
// paper's prototype uses Cassandra; this library ships an in-memory sharded
// store and a file-backed log store, both behind this interface. Index node
// and chunk identifiers are computed on the fly from (stream, level, index)
// so no scans are ever needed — exactly the paper's storage model.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace tc::store {

/// Minimal KV contract. Implementations must be thread-safe.
class KvStore {
 public:
  /// Compaction pressure of a log-structured store (cluster-info
  /// observability). Stores without a compaction cycle report zeros;
  /// decorators forward to the store they wrap — a prefix view over a
  /// shared log reports the whole log's pressure, which is what an
  /// operator watching disk usage wants.
  struct CompactionStats {
    uint64_t compactions = 0;  // compaction passes run (explicit + auto)
    uint64_t dead_bytes = 0;   // dead value bytes awaiting compaction
  };

  virtual ~KvStore() = default;

  virtual Status Put(const std::string& key, BytesView value) = 0;

  /// Append `bytes` to the value under `key`, creating it when absent. The
  /// aggregation index persists one entry per call this way (§4.5: the
  /// tree only ever grows at its rightmost spine). MemKvStore and
  /// LogKvStore override it with an atomic per-key append. This default
  /// reads the value and puts it back whole: it is not atomic against a
  /// concurrent writer of the same key, and it costs a full-value write.
  /// ReplicatedKvStore keeps the default on purpose — it ships the
  /// resulting full-value put, which a follower may apply twice safely.
  virtual Status Append(const std::string& key, BytesView bytes) {
    Bytes value;
    if (auto existing = Get(key); existing.ok()) {
      value = std::move(*existing);
    } else if (existing.status().code() != StatusCode::kNotFound) {
      return existing.status();
    }
    tc::Append(value, bytes);
    return Put(key, value);
  }

  virtual Result<Bytes> Get(const std::string& key) const = 0;
  virtual Status Delete(const std::string& key) = 0;
  virtual bool Contains(const std::string& key) const = 0;

  /// Number of stored entries (approximate under concurrency).
  virtual size_t Size() const = 0;

  /// Total bytes of stored values (approximate; for memory accounting).
  virtual size_t ValueBytes() const = 0;

  /// Flush buffered writes toward stable storage. No-op for volatile
  /// stores; durable stores (LogKvStore) override with a group-committing
  /// flush so many callers share one flush of the same appends. Blocking:
  /// a durable Sync parks the caller on fsync — never call it with a
  /// tc::Mutex held (tc_analyze B1).
  TC_BLOCKING virtual Status Sync() { return Status::Ok(); }

  /// Visit every (key, value) pair in unspecified order. The callback MUST
  /// NOT call back into this store (implementations iterate under their
  /// internal locks). Normal data paths never need this — identifiers are
  /// computed, not discovered — it exists for whole-store operations:
  /// replication snapshots ship a follower the complete state, and tests
  /// compare stores byte-for-byte. Decorators without a natural iteration
  /// inherit the Unimplemented default.
  virtual Status Scan(
      const std::function<void(const std::string& key, BytesView value)>& fn)
      const {
    (void)fn;
    return Unimplemented("store does not support Scan");
  }

  /// Compaction pressure; zeros unless the backing store is log-structured.
  virtual CompactionStats Compaction() const { return {}; }
};

}  // namespace tc::store
