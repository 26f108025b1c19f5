// Byte-budget LRU cache for index nodes (the paper's caffeine cache, §5).
// The Fig 7 "small cache (1 MB)" experiment shrinks this budget to force
// cache misses against the backing store. Values are shared immutable
// buffers: a hit hands out the cached node itself, not a copy.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/thread_annotations.hpp"

namespace tc::store {

/// Thread-safe LRU keyed by string, holding shared immutable byte buffers,
/// evicting by total value-byte budget.
class LruCache {
 public:
  using Value = std::shared_ptr<const Bytes>;

  explicit LruCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Insert or refresh. Values larger than the whole budget are not cached.
  void Put(const std::string& key, Value value) EXCLUDES(mu_);

  /// Fetch + mark most recently used; nullptr on a miss.
  Value Get(const std::string& key) EXCLUDES(mu_);

  void Erase(const std::string& key) EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

  size_t size_bytes() const EXCLUDES(mu_);
  size_t entry_count() const EXCLUDES(mu_);
  uint64_t hits() const EXCLUDES(mu_);
  uint64_t misses() const EXCLUDES(mu_);

 private:
  struct Entry {
    std::string key;
    Value value;
  };

  void EvictIfNeededLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  const size_t capacity_;
  size_t bytes_ GUARDED_BY(mu_) = 0;
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> map_
      GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
};

}  // namespace tc::store
