// Access grants (§4.3-§4.4): the owner-to-principal key material bundles.
//
// Two kinds:
//  - Full-resolution grant: GGM subtree tokens covering leaves [a, b+1] for
//    chunk range [a, b+1) — the principal can decrypt every chunk digest,
//    every in-range aggregate, and the raw chunk payloads in the window.
//  - Resolution grant: a dual-key-regression view over the resolution
//    keystream for windows [lower, upper]; the principal opens the
//    server-stored envelopes to recover only the *outer* GGM leaves at
//    window boundaries (every r-th key, §4.4.1) and can therefore decrypt
//    only r-aligned aggregates, never finer.
//
// Grants travel sealed to the principal's X25519 key and are stored at the
// server key store (§3.2); the server cannot open them.
//
// Consumer key path (ConsumerClient): at FetchGrants each full-resolution
// token becomes one seekable GGM path cursor rooted at its node key, so a
// query's boundary leaves cost a few PRG calls each, not a root walk per
// leaf. Each resolution grant keeps a table of the outer leaves it has
// opened: a query's missing windows come in one GetEnvelopes call, and
// their keys from one DualKeyRegressionView::DeriveKeys walk of each chain.
#pragma once

#include "common/secret.hpp"
#include "common/time.hpp"
#include "crypto/ggm_tree.hpp"
#include "crypto/key_regression.hpp"
#include "crypto/sealed_box.hpp"

namespace tc::client {

/// A principal's identity: the id registered with the identity provider
/// plus their X25519 keypair (consumers hold the secret half).
struct Principal {
  std::string id;
  crypto::BoxKeyPair keys;
};

enum class GrantKind : uint8_t {
  kFullResolution = 1,
  kResolution = 2,
};

struct AccessGrant {
  AccessGrant() = default;
  AccessGrant(const AccessGrant&) = default;
  AccessGrant& operator=(const AccessGrant&) = default;
  AccessGrant(AccessGrant&&) noexcept = default;
  AccessGrant& operator=(AccessGrant&&) noexcept = default;
  ~AccessGrant() {
    SecureZero(primary_state);
    SecureZero(secondary_state);
    // tokens scrub themselves (AccessToken zeroizes on destruction).
  }

  uint64_t stream_uuid = 0;
  GrantKind kind = GrantKind::kFullResolution;

  // Chunk range [first_chunk, last_chunk) this grant covers.
  uint64_t first_chunk = 0;
  uint64_t last_chunk = 0;

  // kFullResolution: GGM tokens over leaves [first_chunk, last_chunk].
  uint32_t tree_height = 0;
  std::vector<crypto::AccessToken> tokens;

  // kResolution: windows of `resolution_chunks` chunks; dual-key-regression
  // view states for window indices [window_lower, window_upper].
  uint64_t resolution_chunks = 0;
  uint64_t window_lower = 0;
  uint64_t window_upper = 0;
  TC_SECRET crypto::Key128 primary_state{};
  TC_SECRET crypto::Key128 secondary_state{};

  Bytes Encode() const;
  /// Decodes and validates: anyone can seal a grant to a principal's public
  /// key (the server included), so every field that later sizes a shift, a
  /// division or a walk is checked here, and a bad one is DataLoss.
  /// Rejected: an unknown kind; for full resolution a tree height outside
  /// 1..63 or a token outside the tree; for resolution a zero resolution or
  /// window_lower > window_upper.
  static Result<AccessGrant> Decode(BytesView in);

  /// Seal to / open with a principal key (X25519 + AES-GCM hybrid).
  Result<Bytes> SealTo(BytesView principal_public) const;
  static Result<AccessGrant> Open(const crypto::BoxKeyPair& principal,
                                  BytesView sealed);

  /// Consumer-side views over the key material.
  Result<crypto::TokenSet> MakeTokenSet() const;
  Result<crypto::DualKeyRegressionView> MakeResolutionView() const;
};

}  // namespace tc::client
