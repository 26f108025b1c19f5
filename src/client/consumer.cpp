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
  for (const auto& entry : resp.grants) {
    auto grant = AccessGrant::Open(principal_.keys, entry.sealed_grant);
    if (!grant.ok()) continue;  // not for us / corrupt — skip
    grants_.push_back(std::move(*grant));
  }
  return static_cast<int>(grants_.size());
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

Result<crypto::Key128> ConsumerClient::BoundaryLeaf(uint64_t uuid,
                                                    uint64_t chunk) {
  // Try full-resolution grants first (cheapest: pure local derivation).
  for (const auto& g : grants_) {
    if (g.stream_uuid != uuid || g.kind != GrantKind::kFullResolution) {
      continue;
    }
    TC_ASSIGN_OR_RETURN(auto tokens, g.MakeTokenSet());
    if (tokens.Covers(chunk)) return tokens.DeriveLeaf(chunk);
  }
  // Resolution grants: chunk must be a window boundary; recover the outer
  // leaf from the server-stored envelope.
  for (const auto& g : grants_) {
    if (g.stream_uuid != uuid || g.kind != GrantKind::kResolution) continue;
    if (chunk % g.resolution_chunks != 0) continue;
    uint64_t window = chunk / g.resolution_chunks;
    if (window < g.window_lower || window > g.window_upper) continue;

    TC_ASSIGN_OR_RETURN(auto view, g.MakeResolutionView());
    TC_ASSIGN_OR_RETURN(crypto::Key128 res_key, view.DeriveKey(window));

    net::GetEnvelopesRequest req{uuid, g.resolution_chunks, window, window};
    TC_ASSIGN_OR_RETURN(
        Bytes payload,
        transport_->Call(MessageType::kGetEnvelopes, req.Encode()));
    TC_ASSIGN_OR_RETURN(auto resp, net::GetEnvelopesResponse::Decode(payload));
    if (resp.envelopes.size() != 1) return DataLoss("missing envelope");
    return StreamKeys::OpenEnvelope(res_key, resp.envelopes[0]);
  }
  return PermissionDenied(
      "no grant can derive the key for chunk boundary " +
      std::to_string(chunk) + " (wrong range or resolution)");
}

Result<StatResult> ConsumerClient::GetStatRange(uint64_t uuid,
                                                TimeRange range) {
  TC_ASSIGN_OR_RETURN(auto config, ConfigFor(uuid));
  net::StatRangeRequest req{uuid, range};
  TC_ASSIGN_OR_RETURN(
      Bytes payload,
      transport_->Call(MessageType::kGetStatRange, req.Encode()));
  TC_ASSIGN_OR_RETURN(auto resp, net::StatRangeResponse::Decode(payload));

  TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_first,
                      BoundaryLeaf(uuid, resp.first_chunk));
  TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_last,
                      BoundaryLeaf(uuid, resp.last_chunk));
  std::pair<crypto::Key128, crypto::Key128> leaves = {leaf_first, leaf_last};
  TC_ASSIGN_OR_RETURN(
      auto fields, DecryptStatBlob(config, resp.aggregate_blob, {&leaves, 1}));
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

  std::vector<StatResult> results;
  uint64_t w = resp.first_chunk;
  for (const auto& blob : resp.aggregates) {
    // The final window clips to the response's end bound. BoundaryLeaf
    // failures remain the (crypto-enforced) detector for windows the
    // grant's resolution cannot reach.
    uint64_t end = std::min(w + resp.granularity_chunks, resp.last_chunk);
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_first, BoundaryLeaf(uuid, w));
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_last, BoundaryLeaf(uuid, end));
    std::pair<crypto::Key128, crypto::Key128> leaves = {leaf_first, leaf_last};
    TC_ASSIGN_OR_RETURN(auto fields,
                        DecryptStatBlob(config, blob, {&leaves, 1}));
    results.push_back(StatResult{
        w, end, index::DigestStats(config.schema, std::move(fields))});
    w = end;
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

  std::vector<index::DataPoint> points;
  for (const auto& c : resp.chunks) {
    // Payload keys need both adjacent leaves: full-resolution grants only.
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_i,
                        BoundaryLeaf(uuid, c.chunk_index));
    TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_n,
                        BoundaryLeaf(uuid, c.chunk_index + 1));
    crypto::Key128 key = crypto::ChunkPayloadKey(leaf_i, leaf_n);
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
  TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_first,
                      BoundaryLeaf(uuid, sum.first_chunk));
  TC_ASSIGN_OR_RETURN(crypto::Key128 leaf_last,
                      BoundaryLeaf(uuid, sum.last_chunk));
  std::pair<crypto::Key128, crypto::Key128> leaves = {leaf_first, leaf_last};
  TC_ASSIGN_OR_RETURN(
      auto decrypted,
      DecryptStatBlob(config, sum.aggregate_blob, {&leaves, 1}));
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
  std::vector<std::pair<crypto::Key128, crypto::Key128>> leaf_pairs;
  for (uint64_t uuid : uuids) {
    TC_ASSIGN_OR_RETURN(crypto::Key128 first,
                        BoundaryLeaf(uuid, resp.first_chunk));
    TC_ASSIGN_OR_RETURN(crypto::Key128 last,
                        BoundaryLeaf(uuid, resp.last_chunk));
    leaf_pairs.emplace_back(first, last);
  }
  TC_ASSIGN_OR_RETURN(auto fields,
                      DecryptStatBlob(config, resp.aggregate_blob,
                                      leaf_pairs));
  return StatResult{resp.first_chunk, resp.last_chunk,
                    index::DigestStats(config.schema, std::move(fields))};
}

}  // namespace tc::client
