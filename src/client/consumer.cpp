#include "client/consumer.hpp"

#include <algorithm>

namespace tc::client {

using net::MessageType;

ConsumerClient::ConsumerClient(std::shared_ptr<net::Transport> transport,
                               Principal principal)
    : transport_(std::move(transport)), principal_(std::move(principal)) {}

Result<int> ConsumerClient::FetchGrants() {
  net::FetchGrantsRequest req{principal_.id};
  TC_ASSIGN_OR_RETURN(
      Bytes payload, transport_->Call(MessageType::kFetchGrants, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::FetchGrantsResponse::Decode(payload));

  grants_.clear();
  key_paths_.clear();
  for (const auto& entry : resp.grants) {
    auto grant = AccessGrant::Open(principal_.keys, entry.sealed_grant);
    if (!grant.ok()) continue;  // not for us / corrupt / invalid — skip
    key_paths_.emplace_back(*grant);
    grants_.push_back(std::move(*grant));
  }
  return static_cast<int>(grants_.size());
}

ConsumerClient::GrantKeyPath::GrantKeyPath(const AccessGrant& grant) {
  if (grant.kind != GrantKind::kFullResolution) return;
  cursors.reserve(grant.tokens.size());
  for (const auto& t : grant.tokens) {
    cursors.emplace_back(t.node_key, t.depth, t.index, grant.tree_height,
                         crypto::TokenSet::FirstLeaf(t, grant.tree_height));
  }
}

Result<net::StreamConfig> ConsumerClient::ConfigFor(uint64_t uuid) {
  auto it = config_cache_.find(uuid);
  if (it != config_cache_.end()) return it->second;
  net::DeleteStreamRequest req{uuid};  // GetStreamInfo shares the uuid body
  TC_ASSIGN_OR_RETURN(
      Bytes payload,
      transport_->Call(MessageType::kGetStreamInfo, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::StreamInfoResponse::Decode(payload));
  config_cache_[uuid] = resp.config;
  return resp.config;
}

Result<const AccessGrant*> ConsumerClient::GrantFor(uint64_t uuid,
                                                    uint64_t first,
                                                    uint64_t last) const {
  for (const auto& g : grants_) {
    if (g.stream_uuid != uuid) continue;
    if (g.first_chunk <= first && last <= g.last_chunk) return &g;
  }
  return PermissionDenied("no grant covers chunks [" + std::to_string(first) +
                          ", " + std::to_string(last) + ") of stream " +
                          std::to_string(uuid));
}

Result<crypto::SecretKeys> ConsumerClient::BoundaryLeaves(
    uint64_t uuid, std::span<const uint64_t> boundaries) {
  crypto::SecretKeys leaves(boundaries.size());
  std::vector<bool> found(boundaries.size(), false);
  size_t missing = boundaries.size();
  // Full-resolution grants first: pure local derivation.
  for (size_t g = 0; g < grants_.size() && missing > 0; ++g) {
    if (grants_[g].stream_uuid != uuid) continue;
    for (auto& cursor : key_paths_[g].cursors) {
      for (size_t i = 0; i < boundaries.size(); ++i) {
        if (found[i] || !cursor.Seek(boundaries[i])) continue;
        leaves[i] = cursor.Current();
        found[i] = true;
        --missing;
      }
    }
  }
  // Resolution grants: a boundary must be a window boundary inside the
  // grant; its outer leaf comes from the server-stored envelope.
  for (size_t g = 0; g < grants_.size() && missing > 0; ++g) {
    const AccessGrant& grant = grants_[g];
    if (grant.stream_uuid != uuid || grant.kind != GrantKind::kResolution) {
      continue;
    }
    GrantKeyPath& path = key_paths_[g];
    const uint64_t r = grant.resolution_chunks;
    auto serves = [&](size_t i) {
      uint64_t b = boundaries[i];
      return !found[i] && b % r == 0 && b / r >= grant.window_lower &&
             b / r <= grant.window_upper;
    };
    std::vector<uint64_t> unopened;
    for (size_t i = 0; i < boundaries.size(); ++i) {
      if (serves(i) && !path.opened.contains(boundaries[i] / r)) {
        unopened.push_back(boundaries[i] / r);
      }
    }
    if (!unopened.empty()) {
      std::sort(unopened.begin(), unopened.end());
      unopened.erase(std::unique(unopened.begin(), unopened.end()),
                     unopened.end());
      TC_RETURN_IF_ERROR(OpenWindows(uuid, grant, unopened, path));
    }
    for (size_t i = 0; i < boundaries.size(); ++i) {
      if (!serves(i)) continue;
      leaves[i] = path.opened.at(boundaries[i] / r);
      found[i] = true;
      --missing;
    }
  }
  if (missing > 0) {
    return PermissionDenied(
        "no grant can derive the key for a chunk boundary of stream " +
        std::to_string(uuid) + " (wrong range or resolution)");
  }
  return leaves;
}

Status ConsumerClient::OpenWindows(uint64_t uuid, const AccessGrant& grant,
                                   std::span<const uint64_t> windows,
                                   GrantKeyPath& path) {
  const uint64_t lo = windows.front();
  const uint64_t hi = windows.back();
  net::GetEnvelopesRequest req{uuid, grant.resolution_chunks, lo, hi};
  TC_ASSIGN_OR_RETURN(
      Bytes payload,
      transport_->Call(MessageType::kGetEnvelopes, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::GetEnvelopesResponse::Decode(payload));
  if (resp.first_index != lo || resp.envelopes.empty() ||
      resp.envelopes.size() - 1 != hi - lo) {
    return DataLoss("envelope response does not match the requested windows");
  }
  TC_ASSIGN_OR_RETURN(auto view, grant.MakeResolutionView());
  TC_ASSIGN_OR_RETURN(crypto::SecretKeys keys, view.DeriveKeys(lo, hi));
  crypto::SecretKeys opened(windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    const uint64_t k = windows[i] - lo;
    TC_ASSIGN_OR_RETURN(opened[i],
                        StreamKeys::OpenEnvelope(keys[k], resp.envelopes[k]));
  }
  for (size_t i = 0; i < windows.size(); ++i) {
    path.opened.emplace(windows[i], opened[i]);
  }
  return Status::Ok();
}

Result<StatResult> ConsumerClient::GetStatRange(uint64_t uuid,
                                                TimeRange range) {
  TC_ASSIGN_OR_RETURN(auto config, ConfigFor(uuid));
  net::StatRangeRequest req{uuid, range};
  TC_ASSIGN_OR_RETURN(
      Bytes payload,
      transport_->Call(MessageType::kGetStatRange, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::StatRangeResponse::Decode(payload));

  const uint64_t bounds[] = {resp.first_chunk, resp.last_chunk};
  TC_ASSIGN_OR_RETURN(auto leaves, BoundaryLeaves(uuid, bounds));
  std::pair<crypto::Key128, crypto::Key128> pair = {leaves[0], leaves[1]};
  TC_ASSIGN_OR_RETURN(
      auto fields, DecryptStatBlob(config, resp.aggregate_blob, {&pair, 1}));
  return StatResult{resp.first_chunk, resp.last_chunk,
                    index::DigestStats(config.schema, std::move(fields))};
}

Result<std::vector<StatResult>> ConsumerClient::GetStatSeries(
    uint64_t uuid, TimeRange range, uint64_t granularity_chunks) {
  TC_ASSIGN_OR_RETURN(auto config, ConfigFor(uuid));
  net::StatSeriesRequest req{uuid, range, granularity_chunks};
  TC_ASSIGN_OR_RETURN(
      Bytes payload,
      transport_->Call(MessageType::kGetStatSeries, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::StatSeriesResponse::Decode(payload));

  // Window i spans [bounds[i], bounds[i + 1]): an interior boundary ends
  // one window and starts the next, and is derived once. The final window
  // clips to the response's end bound. BoundaryLeaves failures remain the
  // (crypto-enforced) detector for windows the grant's resolution cannot
  // reach.
  std::vector<uint64_t> bounds{resp.first_chunk};
  bounds.reserve(resp.aggregates.size() + 1);
  for (size_t i = 0; i < resp.aggregates.size(); ++i) {
    uint64_t w = bounds.back();
    bool whole = w < resp.last_chunk &&
                 resp.last_chunk - w > resp.granularity_chunks;
    bounds.push_back(whole ? w + resp.granularity_chunks : resp.last_chunk);
  }
  TC_ASSIGN_OR_RETURN(auto leaves, BoundaryLeaves(uuid, bounds));

  std::vector<StatResult> results;
  results.reserve(resp.aggregates.size());
  for (size_t i = 0; i < resp.aggregates.size(); ++i) {
    std::pair<crypto::Key128, crypto::Key128> pair = {leaves[i],
                                                      leaves[i + 1]};
    TC_ASSIGN_OR_RETURN(auto fields, DecryptStatBlob(config, resp.aggregates[i],
                                                     {&pair, 1}));
    results.push_back(
        StatResult{bounds[i], bounds[i + 1],
                   index::DigestStats(config.schema, std::move(fields))});
  }
  return results;
}

Result<std::vector<index::DataPoint>> ConsumerClient::GetRange(
    uint64_t uuid, TimeRange range) {
  TC_ASSIGN_OR_RETURN(auto config, ConfigFor(uuid));
  net::GetRangeRequest req{uuid, range};
  TC_ASSIGN_OR_RETURN(Bytes payload,
                      transport_->Call(MessageType::kGetRange, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::GetRangeResponse::Decode(payload));

  // Payload keys need both adjacent leaves i and i + 1: full-resolution
  // grants only.
  std::vector<uint64_t> bounds;
  bounds.reserve(2 * resp.chunks.size());
  for (const auto& c : resp.chunks) {
    if (c.chunk_index == UINT64_MAX) {
      return DataLoss("chunk index has no successor leaf");
    }
    bounds.push_back(c.chunk_index);
    bounds.push_back(c.chunk_index + 1);
  }
  TC_ASSIGN_OR_RETURN(auto leaves, BoundaryLeaves(uuid, bounds));

  std::vector<index::DataPoint> points;
  for (size_t i = 0; i < resp.chunks.size(); ++i) {
    const auto& c = resp.chunks[i];
    crypto::Key128 key =
        crypto::ChunkPayloadKey(leaves[2 * i], leaves[2 * i + 1]);
    TC_ASSIGN_OR_RETURN(auto chunk_points,
                        chunk::OpenPayload(key, c.chunk_index, c.payload));
    for (const auto& p : chunk_points) {
      if (range.Contains(p.timestamp_ms)) points.push_back(p);
    }
  }
  return points;
}

Result<StatResult> ConsumerClient::GetVerifiedStatRange(
    uint64_t uuid, TimeRange range, BytesView owner_signing_public) {
  TC_ASSIGN_OR_RETURN(auto config, ConfigFor(uuid));
  ChunkClock clock(config.t0, config.delta_ms);
  TC_ASSIGN_OR_RETURN(auto idx_range, clock.IndexRange(range));
  TC_ASSIGN_OR_RETURN(auto sum, GetVerifiedSum(*transport_, config, uuid,
                                               idx_range, owner_signing_public));
  // The decrypt below would fail without a grant anyway (crypto-enforced);
  // checking the grant first gives a cleaner error.
  TC_RETURN_IF_ERROR(GrantFor(uuid, sum.first_chunk, sum.last_chunk).status());
  const uint64_t bounds[] = {sum.first_chunk, sum.last_chunk};
  TC_ASSIGN_OR_RETURN(auto leaves, BoundaryLeaves(uuid, bounds));
  std::pair<crypto::Key128, crypto::Key128> pair = {leaves[0], leaves[1]};
  TC_ASSIGN_OR_RETURN(
      auto decrypted,
      DecryptStatBlob(config, sum.aggregate_blob, {&pair, 1}));
  return StatResult{sum.first_chunk, sum.last_chunk,
                    index::DigestStats(config.schema, std::move(decrypted))};
}

Result<StatResult> ConsumerClient::GetMultiStatRange(
    const std::vector<uint64_t>& uuids, TimeRange range) {
  if (uuids.empty()) return InvalidArgument("no streams");
  TC_ASSIGN_OR_RETURN(auto config, ConfigFor(uuids[0]));

  net::MultiStatRangeRequest req{uuids, range};
  TC_ASSIGN_OR_RETURN(
      Bytes payload,
      transport_->Call(MessageType::kMultiStatRange, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::StatRangeResponse::Decode(payload));

  // Need outer keys for every stream: the grant requirement of §4.3.
  const uint64_t bounds[] = {resp.first_chunk, resp.last_chunk};
  std::vector<std::pair<crypto::Key128, crypto::Key128>> leaf_pairs;
  for (uint64_t uuid : uuids) {
    TC_ASSIGN_OR_RETURN(auto leaves, BoundaryLeaves(uuid, bounds));
    leaf_pairs.emplace_back(leaves[0], leaves[1]);
  }
  TC_ASSIGN_OR_RETURN(auto fields,
                      DecryptStatBlob(config, resp.aggregate_blob,
                                      leaf_pairs));
  return StatResult{resp.first_chunk, resp.last_chunk,
                    index::DigestStats(config.schema, std::move(fields))};
}

}  // namespace tc::client
