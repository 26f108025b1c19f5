// Data-consumer client (§3.2): a principal that fetches its sealed grants
// from the server key store, opens them with its X25519 key, and decrypts
// query results strictly within the granted scope — access control is
// enforced by key derivability, not server policy (§4.2.3 "true end-to-end
// encryption").
//
// Key path: a query's window boundaries go through one BoundaryLeaves pass,
// which derives each distinct boundary leaf once. Full-resolution grants
// answer from one GGM path cursor per token, built at FetchGrants and
// sought in ascending boundary order (a few PRG calls per leaf). Resolution
// grants answer from a per-grant table of opened outer leaves; a miss costs
// one GetEnvelopes call for the span of the missing windows and one
// DualKeyRegressionView::DeriveKeys walk, and each envelope is GCM-opened
// before its leaf enters the table. So an hour series costs the series RPC
// plus at most one envelope fetch per resolution grant, and nothing more
// once its windows are open.
#pragma once

#include <map>
#include <memory>
#include <span>

#include "chunk/chunk.hpp"
#include "client/grants.hpp"
#include "client/key_manager.hpp"
#include "client/owner.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"

namespace tc::client {

/// Thread-compatible, not thread-safe: the stream config cache and the
/// grants' key state are unsynchronized, so one thread at a time may call
/// into a ConsumerClient (give each reader thread its own).
class ConsumerClient {
 public:
  ConsumerClient(std::shared_ptr<net::Transport> transport,
                 Principal principal);

  /// Pull and open all sealed grants addressed to this principal, and build
  /// their key paths (the opened-leaf tables start empty). Grants that do
  /// not open or fail validation are skipped. Returns the number of grants
  /// now held.
  Result<int> FetchGrants();

  const std::vector<AccessGrant>& grants() const { return grants_; }

  /// Statistical range query (§4.5). The chunk window is clipped to the
  /// intersection with this principal's grants; PermissionDenied when no
  /// grant overlaps or the range boundaries require underivable keys.
  Result<StatResult> GetStatRange(uint64_t uuid, TimeRange range);

  /// Fixed-granularity series (visualization, Fig 8). Granularity must be a
  /// multiple of the grant resolution.
  Result<std::vector<StatResult>> GetStatSeries(uint64_t uuid,
                                                TimeRange range,
                                                uint64_t granularity_chunks);

  /// Raw data retrieval — needs a full-resolution grant (payload keys are
  /// H(k_i - k_{i+1}), underivable from outer keys alone).
  Result<std::vector<index::DataPoint>> GetRange(uint64_t uuid,
                                                 TimeRange range);

  /// Inter-stream aggregate (§4.3): decryptable only because this principal
  /// holds grants on every stream involved.
  Result<StatResult> GetMultiStatRange(const std::vector<uint64_t>& uuids,
                                       TimeRange range);

  /// Verified statistical query (integrity extension): fetches the attested
  /// per-chunk digests with audit paths, verifies each against the
  /// owner-signed root (`owner_signing_public`, obtained out of band from
  /// the identity provider), re-aggregates client-side, and decrypts within
  /// this principal's grant. Detects tampered, reordered, or replaced
  /// chunks that the plain GetStatRange would silently mis-decrypt.
  Result<StatResult> GetVerifiedStatRange(uint64_t uuid, TimeRange range,
                                          BytesView owner_signing_public);

 private:
  /// The key path of one held grant. All of it is key material: the
  /// cursors' paths scrub themselves, and the destructor scrubs the table.
  struct GrantKeyPath {
    explicit GrantKeyPath(const AccessGrant& grant);
    GrantKeyPath(GrantKeyPath&&) noexcept = default;
    GrantKeyPath& operator=(GrantKeyPath&&) = delete;
    ~GrantKeyPath() {
      for (auto& entry : opened) SecureZero(entry.second);
    }

    // Full resolution: one cursor per token, rooted at its node key.
    std::vector<crypto::SequentialLeafIterator> cursors;
    // Resolution: outer leaves already opened from envelopes, by window.
    // Grows only by windows a query needed, never by the grant's declared
    // range (a forged grant can declare any range).
    TC_SECRET std::map<uint64_t, crypto::Key128> opened;
  };

  /// Outer leaves for chunk boundaries `boundaries` of stream `uuid`, one
  /// per entry, via whichever grant can derive each (tree token first, then
  /// resolution envelope). Ascending order keeps every cursor moving
  /// forward; duplicates cost nothing. PermissionDenied when some boundary
  /// is out of every grant's reach.
  Result<crypto::SecretKeys> BoundaryLeaves(
      uint64_t uuid, std::span<const uint64_t> boundaries);

  /// Fetch and open the envelopes of `windows` (ascending, distinct, none
  /// in the table yet) of resolution grant `grant` into `path.opened`: one
  /// GetEnvelopes call for the span, one DeriveKeys walk. Nothing enters
  /// the table unless every envelope opened.
  Status OpenWindows(uint64_t uuid, const AccessGrant& grant,
                     std::span<const uint64_t> windows, GrantKeyPath& path);

  Result<net::StreamConfig> ConfigFor(uint64_t uuid);

  /// Find a grant on `uuid` overlapping [first, last) chunks.
  Result<const AccessGrant*> GrantFor(uint64_t uuid, uint64_t first,
                                      uint64_t last) const;

  std::shared_ptr<net::Transport> transport_;
  Principal principal_;
  std::vector<AccessGrant> grants_;
  std::vector<GrantKeyPath> key_paths_;  // key_paths_[i] serves grants_[i]
  std::map<uint64_t, net::StreamConfig> config_cache_;
};

}  // namespace tc::client
