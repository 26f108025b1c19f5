// Decode-robustness sweeps: every wire message decoder must survive
// truncation at any byte boundary and arbitrary byte garbage without
// crashing — returning clean Status errors. An untrusted network peer can
// send anything; the server must never trust frame contents.
#include <gtest/gtest.h>

#include <functional>

#include "client/grants.hpp"
#include "crypto/rand.hpp"
#include "net/messages.hpp"
#include "net/wire.hpp"
#include "server/server_engine.hpp"
#include "store/mem_kv.hpp"

namespace tc::net {
namespace {

/// A named decoder run against hostile input. Returns true if decoding
/// succeeded (allowed — a fuzzed prefix can be a valid message; the
/// property under test is "no crash, no UB", enforced by running at all).
struct NamedDecoder {
  const char* name;
  std::function<bool(BytesView)> decode;
};

std::vector<NamedDecoder> AllDecoders() {
  return {
      {"CreateStream",
       [](BytesView in) { return CreateStreamRequest::Decode(in).ok(); }},
      {"DeleteStream",
       [](BytesView in) { return DeleteStreamRequest::Decode(in).ok(); }},
      {"InsertChunk",
       [](BytesView in) { return InsertChunkRequest::Decode(in).ok(); }},
      {"GetRange",
       [](BytesView in) { return GetRangeRequest::Decode(in).ok(); }},
      {"GetRangeResponse",
       [](BytesView in) { return GetRangeResponse::Decode(in).ok(); }},
      {"StatRange",
       [](BytesView in) { return StatRangeRequest::Decode(in).ok(); }},
      {"StatRangeResponse",
       [](BytesView in) { return StatRangeResponse::Decode(in).ok(); }},
      {"StatSeries",
       [](BytesView in) { return StatSeriesRequest::Decode(in).ok(); }},
      {"StatSeriesResponse",
       [](BytesView in) { return StatSeriesResponse::Decode(in).ok(); }},
      {"MultiStatRange",
       [](BytesView in) { return MultiStatRangeRequest::Decode(in).ok(); }},
      {"RollupStream",
       [](BytesView in) { return RollupStreamRequest::Decode(in).ok(); }},
      {"RollupStreamResponse",
       [](BytesView in) { return RollupStreamResponse::Decode(in).ok(); }},
      {"DeleteRange",
       [](BytesView in) { return DeleteRangeRequest::Decode(in).ok(); }},
      {"StreamInfoResponse",
       [](BytesView in) { return StreamInfoResponse::Decode(in).ok(); }},
      {"PutGrant",
       [](BytesView in) { return PutGrantRequest::Decode(in).ok(); }},
      {"FetchGrants",
       [](BytesView in) { return FetchGrantsRequest::Decode(in).ok(); }},
      {"FetchGrantsResponse",
       [](BytesView in) { return FetchGrantsResponse::Decode(in).ok(); }},
      {"RevokeGrant",
       [](BytesView in) { return RevokeGrantRequest::Decode(in).ok(); }},
      {"PutEnvelopes",
       [](BytesView in) { return PutEnvelopesRequest::Decode(in).ok(); }},
      {"GetEnvelopes",
       [](BytesView in) { return GetEnvelopesRequest::Decode(in).ok(); }},
      {"GetEnvelopesResponse",
       [](BytesView in) { return GetEnvelopesResponse::Decode(in).ok(); }},
      {"ResponseBody",
       [](BytesView in) { return DecodeResponseBody(in).ok(); }},
      {"AccessGrant",
       [](BytesView in) { return client::AccessGrant::Decode(in).ok(); }},
      {"PutAttestation",
       [](BytesView in) { return PutAttestationRequest::Decode(in).ok(); }},
      {"GetAttestation",
       [](BytesView in) { return GetAttestationRequest::Decode(in).ok(); }},
      {"GetChunkWitnessed",
       [](BytesView in) {
         return GetChunkWitnessedRequest::Decode(in).ok();
       }},
      {"GetChunkWitnessedResponse",
       [](BytesView in) {
         return GetChunkWitnessedResponse::Decode(in).ok();
       }},
      {"InsertChunkBatch",
       [](BytesView in) { return InsertChunkBatchRequest::Decode(in).ok(); }},
      {"ClusterInfoResponse",
       [](BytesView in) { return ClusterInfoResponse::Decode(in).ok(); }},
      {"ReplicaOps",
       [](BytesView in) { return ReplicaOpsRequest::Decode(in).ok(); }},
      {"ReplicaSnapshotBegin",
       [](BytesView in) {
         return ReplicaSnapshotBeginRequest::Decode(in).ok();
       }},
      {"ReplicaSnapshotChunk",
       [](BytesView in) {
         return ReplicaSnapshotChunkRequest::Decode(in).ok();
       }},
      {"ReplicaSnapshotEnd",
       [](BytesView in) { return ReplicaSnapshotEndRequest::Decode(in).ok(); }},
      {"ReplicaSnapshotAck",
       [](BytesView in) {
         return ReplicaSnapshotAckResponse::Decode(in).ok();
       }},
      {"ReplicaAck",
       [](BytesView in) { return ReplicaAckResponse::Decode(in).ok(); }},
      {"ReplicaHello",
       [](BytesView in) { return ReplicaHelloRequest::Decode(in).ok(); }},
      {"ReplicaHelloResponse",
       [](BytesView in) { return ReplicaHelloResponse::Decode(in).ok(); }},
      {"ReplicaHeartbeat",
       [](BytesView in) { return ReplicaHeartbeatRequest::Decode(in).ok(); }},
      {"MetricsInfoResponse",
       [](BytesView in) { return MetricsInfoResponse::Decode(in).ok(); }},
      {"TraceInfo",
       [](BytesView in) { return TraceInfoRequest::Decode(in).ok(); }},
      {"TraceInfoResponse",
       [](BytesView in) { return TraceInfoResponse::Decode(in).ok(); }},
      {"EventsInfo",
       [](BytesView in) { return EventsInfoRequest::Decode(in).ok(); }},
      {"EventsInfoResponse",
       [](BytesView in) { return EventsInfoResponse::Decode(in).ok(); }},
  };
}

/// One valid encoded instance per message type, used as the truncation
/// baseline (truncating a *valid* message probes every partial-field path).
std::vector<Bytes> ValidEncodings() {
  std::vector<Bytes> out;
  StreamConfig config;
  config.name = "fuzz/stream";
  config.schema.hist_bins = 4;
  out.push_back(CreateStreamRequest{7, config}.Encode());
  out.push_back(DeleteStreamRequest{7}.Encode());
  out.push_back(
      InsertChunkRequest{7, 3, ToBytes("digest"), ToBytes("payload")}
          .Encode());
  out.push_back(GetRangeRequest{7, {100, 200}}.Encode());
  GetRangeResponse rr;
  rr.chunks.push_back({1, ToBytes("chunk-1")});
  rr.chunks.push_back({2, ToBytes("chunk-2")});
  out.push_back(rr.Encode());
  out.push_back(StatRangeRequest{7, {100, 200}}.Encode());
  out.push_back(StatRangeResponse{1, 5, ToBytes("aggregate")}.Encode());
  out.push_back(StatSeriesRequest{7, {0, 500}, 4}.Encode());
  StatSeriesResponse sr;
  sr.first_chunk = 0;
  sr.granularity_chunks = 4;
  sr.aggregates = {ToBytes("w0"), ToBytes("w1")};
  out.push_back(sr.Encode());
  out.push_back(MultiStatRangeRequest{{1, 2, 3}, {0, 100}}.Encode());
  out.push_back(RollupStreamRequest{7, 8, 6, {0, 0}}.Encode());
  out.push_back(RollupStreamResponse{6, 30}.Encode());
  out.push_back(DeleteRangeRequest{7, {0, 100}}.Encode());
  out.push_back(StreamInfoResponse{config, 42}.Encode());
  out.push_back(PutGrantRequest{7, "alice", 1, ToBytes("sealed")}.Encode());
  out.push_back(FetchGrantsRequest{"alice"}.Encode());
  FetchGrantsResponse fr;
  fr.grants.push_back({7, 1, ToBytes("sealed")});
  out.push_back(fr.Encode());
  out.push_back(RevokeGrantRequest{7, "alice", 1}.Encode());
  PutEnvelopesRequest pe;
  pe.uuid = 7;
  pe.resolution_chunks = 6;
  pe.envelopes = {ToBytes("env0"), ToBytes("env1")};
  out.push_back(pe.Encode());
  out.push_back(GetEnvelopesRequest{7, 6, 0, 10}.Encode());
  GetEnvelopesResponse ge;
  ge.envelopes = {ToBytes("env")};
  out.push_back(ge.Encode());
  out.push_back(EncodeResponseBody(Status::Ok(), ToBytes("payload")));
  out.push_back(PutAttestationRequest{7, ToBytes("attestation")}.Encode());
  out.push_back(GetAttestationRequest{7}.Encode());
  out.push_back(GetChunkWitnessedRequest{7, 0, 8, 8}.Encode());
  GetChunkWitnessedResponse wr;
  wr.entries.push_back({3, ToBytes("digest"), ToBytes("payload"),
                        ToBytes("proof")});
  out.push_back(wr.Encode());
  InsertChunkBatchRequest batch;
  batch.uuid = 7;
  batch.entries.push_back({0, ToBytes("digest-0"), ToBytes("payload-0")});
  batch.entries.push_back({1, ToBytes("digest-1"), {}});
  batch.entries.push_back({5, ToBytes("digest-5"), ToBytes("payload-5")});
  out.push_back(batch.Encode());
  ClusterInfoResponse cluster;
  cluster.shards.push_back({0, 3, 4096, 2, ClusterInfoResponse::kAckQuorum, 5});
  cluster.shards.push_back({1, 2, 2048});
  out.push_back(cluster.Encode());
  ReplicaOpsRequest rops;
  rops.shard = 2;
  rops.first_seq = 12;
  rops.ops.push_back({kReplicaOpPut, "chunk/7/0", ToBytes("sealed")});
  rops.ops.push_back({kReplicaOpDelete, "chunk/7/1", {}});
  out.push_back(rops.Encode());
  out.push_back(ReplicaSnapshotBeginRequest{2, 0x0effULL, 13}.Encode());
  ReplicaSnapshotChunkRequest chunk;
  chunk.shard = 2;
  chunk.seq = 13;
  chunk.first_index = 5;
  chunk.entries.emplace_back("meta/streams", ToBytes("dir"));
  chunk.entries.emplace_back("chunk/7/0", ToBytes("sealed"));
  out.push_back(chunk.Encode());
  out.push_back(ReplicaSnapshotEndRequest{2, 13, 7}.Encode());
  out.push_back(ReplicaSnapshotAckResponse{7}.Encode());
  out.push_back(ReplicaAckResponse{13}.Encode());
  ReplicaHelloRequest hello;
  hello.shard = 2;
  hello.num_shards = 4;
  hello.applied_seq = 13;
  hello.store_fingerprint = 0xfeedULL;
  hello.host = "127.0.0.1";
  hello.port = 4434;
  out.push_back(hello.Encode());
  out.push_back(ReplicaHelloResponse{21, 500}.Encode());
  ReplicaHeartbeatRequest beat;
  beat.shard = 2;
  beat.head_seq = 21;
  beat.peers.push_back({"127.0.0.1", 4434, 13});
  beat.peers.push_back({"127.0.0.1", 4435, 21});
  out.push_back(beat.Encode());
  // MetricsInfo: the request is bodyless; the response carries all three
  // sample kinds so truncation probes every per-kind field path.
  MetricsInfoResponse mi;
  {
    MetricsInfoResponse::Entry e;
    e.kind = MetricsInfoResponse::kCounter;
    e.name = "tc_server_requests_total";
    e.labels = "type=\"ping\"";
    e.value = 42;
    mi.entries.push_back(e);
    e.kind = MetricsInfoResponse::kGauge;
    e.name = "tc_net_server_conns";
    e.labels.clear();
    e.value = -1;
    mi.entries.push_back(e);
    e.kind = MetricsInfoResponse::kHistogram;
    e.name = "tc_server_request_seconds";
    e.labels = "type=\"ping\"";
    e.count = 42;
    e.sum = 1000;
    e.max = 99;
    e.p50 = 15;
    e.p95 = 63;
    e.p99 = 63;
    mi.entries.push_back(e);
  }
  out.push_back(mi.Encode());
  out.push_back(TraceInfoRequest{0x1234, 1}.Encode());
  TraceInfoResponse ti;
  {
    TraceInfoResponse::Span s;
    s.trace_id = 0x1234;
    s.span_id = 3;
    s.parent_span_id = 1;
    s.op = "router_dispatch";
    s.msg_type = 11;
    s.shard = 0xffffffffu;
    s.start_us = 1'700'000'000'000'000;
    s.duration_us = 812;
    s.slow = 1;
    ti.spans.push_back(s);
    s.span_id = 5;
    s.parent_span_id = 3;
    s.op = "stat_range";
    s.shard = 1;
    s.slow = 0;
    ti.spans.push_back(s);
    ti.dropped = 9;
  }
  out.push_back(ti.Encode());
  out.push_back(EventsInfoRequest{17}.Encode());
  EventsInfoResponse ev;
  ev.events.push_back({21, 1'700'000'000'000, "self_promotion", 0,
                       "127.0.0.1:4434 silent_ms=3000"});
  ev.events.push_back({22, 1'700'000'000'250, "promotion_complete", 0,
                       "127.0.0.1:4434 streams=3"});
  ev.dropped = 2;
  out.push_back(ev.Encode());
  client::AccessGrant grant;
  grant.stream_uuid = 7;
  grant.kind = client::GrantKind::kFullResolution;
  grant.first_chunk = 0;
  grant.last_chunk = 8;
  grant.tree_height = 10;
  grant.tokens.push_back({3, 1, crypto::Key128{}});
  out.push_back(grant.Encode());
  return out;
}

/// Decode with T's own decoder, then encode again.
template <class T>
Result<Bytes> Reencode(BytesView in) {
  TC_ASSIGN_OR_RETURN(auto msg, T::Decode(in));
  return msg.Encode();
}

struct GoldenEncoding {
  const char* name;
  const char* hex;
  std::function<Result<Bytes>(BytesView)> reencode;
};

/// The exact bytes of each ValidEncodings() entry, in the same order. Peers
/// of different versions exchange these frames, so any change here is a
/// wire-format break, not a refactor.
std::vector<GoldenEncoding> GoldenEncodings() {
  return {
      {"CreateStream",
       "07000000000000000b66757a7a2f73747265616d000000000000000010270000"
       "000000002801010000000000000000000060ea00000000000004000000000000"
       "000000000001000000000000000100400000000100",
       Reencode<CreateStreamRequest>},
      {"DeleteStream",
       "0700000000000000",
       Reencode<DeleteStreamRequest>},
      {"InsertChunk",
       "0700000000000000030000000000000006646967657374077061796c6f6164",
       Reencode<InsertChunkRequest>},
      {"GetRange",
       "07000000000000006400000000000000c800000000000000",
       Reencode<GetRangeRequest>},
      {"GetRangeResponse",
       "020100000000000000076368756e6b2d310200000000000000076368756e6b2d"
       "32",
       Reencode<GetRangeResponse>},
      {"StatRange",
       "07000000000000006400000000000000c800000000000000",
       Reencode<StatRangeRequest>},
      {"StatRangeResponse",
       "0100000000000000050000000000000009616767726567617465",
       Reencode<StatRangeResponse>},
      {"StatSeries",
       "07000000000000000000000000000000f4010000000000000400000000000000",
       Reencode<StatSeriesRequest>},
      {"StatSeriesResponse",
       "00000000000000000000000000000000040000000000000002027730027731",
       Reencode<StatSeriesResponse>},
      {"MultiStatRange",
       "0301000000000000000200000000000000030000000000000000000000000000"
       "006400000000000000",
       Reencode<MultiStatRangeRequest>},
      {"RollupStream",
       "0700000000000000080000000000000006000000000000000000000000000000"
       "0000000000000000",
       Reencode<RollupStreamRequest>},
      {"RollupStreamResponse",
       "06000000000000001e00000000000000",
       Reencode<RollupStreamResponse>},
      {"DeleteRange",
       "070000000000000000000000000000006400000000000000",
       Reencode<DeleteRangeRequest>},
      {"StreamInfoResponse",
       "0b66757a7a2f73747265616d0000000000000000102700000000000028010100"
       "00000000000000000060ea000000000000040000000000000000000000010000"
       "000000000001004000000001002a00000000000000",
       Reencode<StreamInfoResponse>},
      {"PutGrant",
       "070000000000000005616c6963650100000000000000067365616c6564",
       Reencode<PutGrantRequest>},
      {"FetchGrants",
       "05616c696365",
       Reencode<FetchGrantsRequest>},
      {"FetchGrantsResponse",
       "0107000000000000000100000000000000067365616c6564",
       Reencode<FetchGrantsResponse>},
      {"RevokeGrant",
       "070000000000000005616c6963650100000000000000",
       Reencode<RevokeGrantRequest>},
      {"PutEnvelopes",
       "0700000000000000060000000000000000000000000000000204656e76300465"
       "6e7631",
       Reencode<PutEnvelopesRequest>},
      {"GetEnvelopes",
       "0700000000000000060000000000000000000000000000000a00000000000000",
       Reencode<GetEnvelopesRequest>},
      {"GetEnvelopesResponse",
       "00000000000000000103656e76",
       Reencode<GetEnvelopesResponse>},
      {"ResponseBody",
       "00007061796c6f6164",
       [](BytesView in) -> Result<Bytes> {
         TC_ASSIGN_OR_RETURN(Bytes payload, DecodeResponseBody(in));
         return EncodeResponseBody(Status::Ok(), payload);
       }},
      {"PutAttestation",
       "07000000000000000b6174746573746174696f6e",
       Reencode<PutAttestationRequest>},
      {"GetAttestation",
       "0700000000000000",
       Reencode<GetAttestationRequest>},
      {"GetChunkWitnessed",
       "0700000000000000000000000000000008000000000000000800000000000000",
       Reencode<GetChunkWitnessedRequest>},
      {"GetChunkWitnessedResponse",
       "01030000000000000006646967657374077061796c6f61640570726f6f66",
       Reencode<GetChunkWitnessedResponse>},
      {"InsertChunkBatch",
       "0700000000000000030000000000000000086469676573742d30097061796c6f"
       "61642d300100000000000000086469676573742d310005000000000000000864"
       "69676573742d35097061796c6f61642d35",
       Reencode<InsertChunkBatchRequest>},
      {"ClusterInfoResponse",
       "0200000000030000000000000000100000000000000200000001050000000000"
       "0000000000000000000000000000000000000000000000000000000000000001"
       "0000000200000000000000000800000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000",
       Reencode<ClusterInfoResponse>},
      {"ReplicaOps",
       "020000000c000000000000000201096368756e6b2f372f30067365616c656402"
       "096368756e6b2f372f3100",
       Reencode<ReplicaOpsRequest>},
      {"ReplicaSnapshotBegin",
       "02000000ff0e0000000000000d00000000000000",
       Reencode<ReplicaSnapshotBeginRequest>},
      {"ReplicaSnapshotChunk",
       "020000000d000000000000000500000000000000020c6d6574612f7374726561"
       "6d7303646972096368756e6b2f372f30067365616c6564",
       Reencode<ReplicaSnapshotChunkRequest>},
      {"ReplicaSnapshotEnd",
       "020000000d000000000000000700000000000000",
       Reencode<ReplicaSnapshotEndRequest>},
      {"ReplicaSnapshotAck",
       "0700000000000000",
       Reencode<ReplicaSnapshotAckResponse>},
      {"ReplicaAck",
       "0d00000000000000",
       Reencode<ReplicaAckResponse>},
      {"ReplicaHello",
       "02000000040000000d00000000000000edfe000000000000093132372e302e30"
       "2e3152110000",
       Reencode<ReplicaHelloRequest>},
      {"ReplicaHelloResponse",
       "1500000000000000f4010000",
       Reencode<ReplicaHelloResponse>},
      {"ReplicaHeartbeat",
       "02000000150000000000000002093132372e302e302e31521100000d00000000"
       "000000093132372e302e302e31531100001500000000000000",
       Reencode<ReplicaHeartbeatRequest>},
      {"MetricsInfoResponse",
       "03001874635f7365727665725f72657175657374735f746f74616c0b74797065"
       "3d2270696e67222a00000000000000000000000000011374635f6e65745f7365"
       "727665725f636f6e6e7300ffffffffffffffff000000000000021974635f7365"
       "727665725f726571756573745f7365636f6e64730b747970653d2270696e6722"
       "ffffffffffffffff2ae807630f3f3f",
       Reencode<MetricsInfoResponse>},
      {"TraceInfo",
       "341200000000000001",
       Reencode<TraceInfoRequest>},
      {"TraceInfoResponse",
       "023412000000000000030000000000000001000000000000000f726f75746572"
       "5f64697370617463680bffffffff00401e18240a0600ac060134120000000000"
       "00050000000000000003000000000000000a737461745f72616e67650b010000"
       "0000401e18240a0600ac060009",
       Reencode<TraceInfoResponse>},
      {"EventsInfo",
       "1100000000000000",
       Reencode<EventsInfoRequest>},
      {"EventsInfoResponse",
       "0215000000000000000068e5cf8b0100000e73656c665f70726f6d6f74696f6e"
       "000000001d3132372e302e302e313a343433342073696c656e745f6d733d3330"
       "30301600000000000000fa68e5cf8b0100001270726f6d6f74696f6e5f636f6d"
       "706c65746500000000183132372e302e302e313a343433342073747265616d73"
       "3d3302",
       Reencode<EventsInfoResponse>},
      {"AccessGrant",
       "070000000000000001000000000000000008000000000000000a000000010300"
       "0000010000000000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "000000000000000000000000000000000000",
       Reencode<client::AccessGrant>},
  };
}

TEST(WireGolden, ValidEncodingsMatchCapturedBytesAndRoundTrip) {
  auto encodings = ValidEncodings();
  auto golden = GoldenEncodings();
  ASSERT_EQ(encodings.size(), golden.size());
  for (size_t i = 0; i < encodings.size(); ++i) {
    EXPECT_EQ(ToHex(encodings[i]), golden[i].hex) << golden[i].name;
    auto again = golden[i].reencode(encodings[i]);
    ASSERT_TRUE(again.ok()) << golden[i].name << ": "
                            << again.status().ToString();
    EXPECT_EQ(ToHex(*again), golden[i].hex) << golden[i].name;
  }
}

TEST(WireGolden, PersistedStreamConfigBytesAreStable) {
  // CreateStream persists the config under meta/cfg/<uuid>; a restarted
  // server decodes it from there, so these bytes are durable state.
  StreamConfig config;
  config.name = "golden/cfg";
  config.t0 = 1'700'000'000'000;
  config.delta_ms = 5'000;
  config.schema.with_sumsq = true;
  config.schema.hist_bins = 3;
  config.schema.hist_min = -10;
  config.schema.hist_width = 7;
  config.cipher = CipherKind::kHeac;
  config.cipher_public = ToBytes("pub");
  config.fanout = 8;
  config.compression = 2;
  config.integrity = true;
  auto kv = std::make_shared<store::MemKvStore>();
  server::ServerEngine engine(kv);
  ASSERT_TRUE(engine
                  .Handle(MessageType::kCreateStream,
                          CreateStreamRequest{42, config}.Encode())
                  .ok());
  auto persisted = kv->Get("meta/cfg/42");
  ASSERT_TRUE(persisted.ok());
  const std::string golden =
      "0a676f6c64656e2f6366670068e5cf8b01000088130000000000002801010100"
      "000000000000000060ea00000000000003000000f6ffffffffffffff07000000"
      "000000000103707562080000000201";
  EXPECT_EQ(ToHex(*persisted), golden);

  // Decode then encode reproduces it, here inside the info reply that
  // carries a config followed by a u64 chunk count.
  Bytes info = *persisted;
  for (int i = 0; i < 8; ++i) info.push_back(0);
  auto decoded = StreamInfoResponse::Decode(info);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->config, config);
  EXPECT_EQ(ToHex(decoded->Encode()), ToHex(info));
}

template <class T>
Status DecodeStatus(BytesView in) {
  return T::Decode(in).status();
}

struct ValidatorCase {
  const char* name;
  std::function<Status(BytesView)> decode;
  Bytes valid;    // the full message before the one-field change
  Bytes invalid;  // the same message breaking exactly one invariant
  const char* message;
};

std::vector<ValidatorCase> ValidatorCases() {
  std::vector<ValidatorCase> out;

  InsertChunkBatchRequest batch;
  batch.uuid = 7;
  batch.entries = {{3, ToBytes("d3"), ToBytes("p3")},
                   {4, ToBytes("d4"), ToBytes("p4")},
                   {9, ToBytes("d9"), {}}};
  InsertChunkBatchRequest repeated = batch;
  repeated.entries[2].chunk_index = 4;
  out.push_back({"batch indices strictly increase",
                 DecodeStatus<InsertChunkBatchRequest>, batch.Encode(),
                 repeated.Encode(),
                 "batch chunk indices must strictly increase"});

  ClusterInfoResponse cluster;
  cluster.shards.push_back({0, 3, 4096, 2, ClusterInfoResponse::kAckQuorum,
                            5, 1, 1, 2, 640, 1024, 3});
  cluster.shards.push_back({1, 2, 2048});
  ClusterInfoResponse bad_ack = cluster;
  bad_ack.shards[1].ack_mode = 2;
  out.push_back({"ack_mode <= 1", DecodeStatus<ClusterInfoResponse>,
                 cluster.Encode(), bad_ack.Encode(),
                 "unknown replica ack mode"});
  ClusterInfoResponse bad_failover = cluster;
  bad_failover.shards[1].auto_failover = 2;
  out.push_back({"auto_failover <= 1", DecodeStatus<ClusterInfoResponse>,
                 cluster.Encode(), bad_failover.Encode(),
                 "auto_failover is a boolean flag"});

  MetricsInfoResponse metrics;
  metrics.entries.resize(2);
  metrics.entries[0].name = "tc_a_total";
  metrics.entries[1].kind = MetricsInfoResponse::kHistogram;
  metrics.entries[1].name = "tc_b_seconds";
  metrics.entries[1].count = 4;
  MetricsInfoResponse bad_kind = metrics;
  bad_kind.entries[1].kind = 3;
  out.push_back({"metric kind <= 2", DecodeStatus<MetricsInfoResponse>,
                 metrics.Encode(), bad_kind.Encode(), "unknown metric kind"});

  out.push_back({"slow_only <= 1", DecodeStatus<TraceInfoRequest>,
                 TraceInfoRequest{0x1234, 1}.Encode(),
                 TraceInfoRequest{0x1234, 2}.Encode(),
                 "slow_only is a boolean flag"});

  TraceInfoResponse spans;
  spans.spans.resize(2);
  spans.spans[0].op = "a";
  spans.spans[1].op = "b";
  spans.spans[1].slow = 1;
  spans.dropped = 4;
  TraceInfoResponse bad_slow = spans;
  bad_slow.spans[1].slow = 2;
  out.push_back({"span slow <= 1", DecodeStatus<TraceInfoResponse>,
                 spans.Encode(), bad_slow.Encode(), "slow is a boolean flag"});

  ReplicaOpsRequest ops;
  ops.shard = 1;
  ops.first_seq = 5;
  ops.ops = {{kReplicaOpPut, "k1", ToBytes("v")},
             {kReplicaOpDelete, "k2", {}}};
  ReplicaOpsRequest bad_op = ops;
  bad_op.ops[1].kind = 3;
  out.push_back({"op kind is put or delete", DecodeStatus<ReplicaOpsRequest>,
                 ops.Encode(), bad_op.Encode(), "unknown replica op kind"});
  ReplicaOpsRequest delete_value = ops;
  delete_value.ops[1].value = ToBytes("v");
  out.push_back({"delete carries no value", DecodeStatus<ReplicaOpsRequest>,
                 ops.Encode(), delete_value.Encode(),
                 "replica delete carries a value"});

  ReplicaHelloRequest hello;
  hello.shard = 2;
  hello.num_shards = 4;
  hello.applied_seq = 13;
  hello.store_fingerprint = 0xfeed;
  hello.host = "127.0.0.1";
  hello.port = 65535;
  auto hello_with = [&](auto change) {
    ReplicaHelloRequest h = hello;
    change(h);
    return h.Encode();
  };
  out.push_back({"hello num_shards > 0", DecodeStatus<ReplicaHelloRequest>,
                 hello.Encode(),
                 hello_with([](auto& h) { h.shard = 0, h.num_shards = 0; }),
                 "replica hello shard id outside its shard count"});
  out.push_back({"hello shard < num_shards", DecodeStatus<ReplicaHelloRequest>,
                 hello.Encode(), hello_with([](auto& h) { h.shard = 4; }),
                 "replica hello shard id outside its shard count"});
  out.push_back({"hello port > 0", DecodeStatus<ReplicaHelloRequest>,
                 hello.Encode(), hello_with([](auto& h) { h.port = 0; }),
                 "replica hello carries an invalid port"});
  out.push_back({"hello port <= 65535", DecodeStatus<ReplicaHelloRequest>,
                 hello.Encode(), hello_with([](auto& h) { h.port = 65536; }),
                 "replica hello carries an invalid port"});
  return out;
}

TEST(WireGolden, EachValidatorRejectsItsInvariant) {
  for (const auto& c : ValidatorCases()) {
    EXPECT_TRUE(c.decode(c.valid).ok()) << c.name;
    Status s = c.decode(c.invalid);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_EQ(s.message(), c.message) << c.name;
  }
}

TEST(WireFuzz, EveryDecoderSurvivesTruncationOfValidMessages) {
  auto decoders = AllDecoders();
  auto encodings = ValidEncodings();
  // Truncate each valid encoding at every byte boundary and feed it to
  // every decoder (not just its own — cross-type confusion included).
  for (const auto& full : encodings) {
    for (size_t cut = 0; cut < full.size(); ++cut) {
      BytesView prefix(full.data(), cut);
      for (const auto& decoder : decoders) {
        (void)decoder.decode(prefix);  // must not crash
      }
    }
  }
  SUCCEED();
}

TEST(WireFuzz, EveryDecoderSurvivesRandomBytes) {
  auto decoders = AllDecoders();
  crypto::DeterministicRng rng(0xf022);
  for (int round = 0; round < 200; ++round) {
    Bytes garbage(rng.NextBelow(300));
    rng.Fill(garbage);
    for (const auto& decoder : decoders) {
      (void)decoder.decode(garbage);  // must not crash
    }
  }
  SUCCEED();
}

TEST(WireFuzz, EveryDecoderSurvivesBitFlipsOfValidMessages) {
  auto decoders = AllDecoders();
  auto encodings = ValidEncodings();
  crypto::DeterministicRng rng(77);
  for (const auto& full : encodings) {
    for (int round = 0; round < 32; ++round) {
      Bytes mutated = full;
      if (mutated.empty()) continue;
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
      for (const auto& decoder : decoders) {
        (void)decoder.decode(mutated);  // must not crash
      }
    }
  }
  SUCCEED();
}

TEST(WireFuzz, LengthPrefixedVectorsRejectAbsurdCounts) {
  // A hostile length prefix claiming billions of elements must fail cleanly
  // (allocation-bomb defense), never attempt the allocation. The count is
  // positioned per message layout: `filler` bytes of preceding fields, then
  // a 5-byte varint ≈ 2^34, then a little trailing data.
  auto hostile_at = [](size_t filler) {
    Bytes b(filler, 0x00);
    for (int i = 0; i < 4; ++i) b.push_back(0xff);
    b.push_back(0x7f);  // varint terminator: count = 0x7ffffffff
    for (int i = 0; i < 8; ++i) b.push_back(0x01);
    return b;
  };
  EXPECT_FALSE(GetRangeResponse::Decode(hostile_at(0)).ok());
  EXPECT_FALSE(FetchGrantsResponse::Decode(hostile_at(0)).ok());
  EXPECT_FALSE(MultiStatRangeRequest::Decode(hostile_at(0)).ok());
  // StatSeriesResponse: count follows first_chunk + last_chunk +
  // granularity (24 bytes).
  EXPECT_FALSE(StatSeriesResponse::Decode(hostile_at(24)).ok());
  // AccessGrant: count follows uuid+kind+range+height (29 bytes).
  EXPECT_FALSE(client::AccessGrant::Decode(hostile_at(29)).ok());
  // InsertChunkBatch: count follows the uuid (8 bytes).
  EXPECT_FALSE(InsertChunkBatchRequest::Decode(hostile_at(8)).ok());
  // ClusterInfoResponse: count is the first field.
  EXPECT_FALSE(ClusterInfoResponse::Decode(hostile_at(0)).ok());
  // MetricsInfoResponse: entry count is the first field.
  EXPECT_FALSE(MetricsInfoResponse::Decode(hostile_at(0)).ok());
  // Replica ops: count follows a 4-byte shard + 8-byte sequence number.
  EXPECT_FALSE(ReplicaOpsRequest::Decode(hostile_at(12)).ok());
  // Snapshot chunk: count follows shard + seq + first_index (20 bytes).
  EXPECT_FALSE(ReplicaSnapshotChunkRequest::Decode(hostile_at(20)).ok());
  // Heartbeat: peer count follows shard + head_seq (12 bytes).
  EXPECT_FALSE(ReplicaHeartbeatRequest::Decode(hostile_at(12)).ok());
  // Trace and event journal responses: count is the first field.
  EXPECT_FALSE(TraceInfoResponse::Decode(hostile_at(0)).ok());
  EXPECT_FALSE(EventsInfoResponse::Decode(hostile_at(0)).ok());
}

TEST(WireFuzz, ReplicaOpsRejectsMalformedOps) {
  // Valid baseline round-trips.
  ReplicaOpsRequest good;
  good.shard = 3;
  good.first_seq = 5;
  good.ops = {{kReplicaOpPut, "k", ToBytes("v")}, {kReplicaOpDelete, "k", {}}};
  auto decoded = ReplicaOpsRequest::Decode(good.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard, 3u);
  EXPECT_EQ(decoded->first_seq, 5u);
  ASSERT_EQ(decoded->ops.size(), 2u);
  EXPECT_EQ(decoded->ops[0], good.ops[0]);

  // Unknown op kind: rejected at decode, not trusted into the store.
  BinaryWriter bad_kind;
  bad_kind.PutU32(3);
  bad_kind.PutU64(5);
  bad_kind.PutVar(1);
  bad_kind.PutU8(9);
  bad_kind.PutString("k");
  bad_kind.PutBytes(ToBytes("v"));
  EXPECT_EQ(ReplicaOpsRequest::Decode(bad_kind.data()).status().code(),
            StatusCode::kInvalidArgument);

  // A delete smuggling a value is a malformed frame.
  BinaryWriter del_val;
  del_val.PutU32(3);
  del_val.PutU64(5);
  del_val.PutVar(1);
  del_val.PutU8(kReplicaOpDelete);
  del_val.PutString("k");
  del_val.PutBytes(ToBytes("v"));
  EXPECT_EQ(ReplicaOpsRequest::Decode(del_val.data()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireFuzz, ReplicaHandshakeFramesRejectHostileFields) {
  // Hello with port 0 (or out of range): the primary would dial nothing.
  ReplicaHelloRequest hello;
  hello.shard = 0;
  hello.host = "127.0.0.1";
  hello.port = 0;
  EXPECT_EQ(ReplicaHelloRequest::Decode(hello.Encode()).status().code(),
            StatusCode::kInvalidArgument);
  BinaryWriter big_port;
  big_port.PutU32(0);
  big_port.PutU32(1);
  big_port.PutU64(0);
  big_port.PutU64(0);
  big_port.PutString("127.0.0.1");
  big_port.PutU32(70'000);
  EXPECT_EQ(ReplicaHelloRequest::Decode(big_port.data()).status().code(),
            StatusCode::kInvalidArgument);

  // Every new frame fails cleanly when truncated at any byte: all fields
  // are mandatory, so no strict prefix parses (targeted sweep on top of
  // the global cross-decoder one, with non-trivial field values).
  ReplicaSnapshotChunkRequest chunk;
  chunk.shard = 1;
  chunk.seq = 9;
  chunk.first_index = 4;
  chunk.entries.emplace_back("key", ToBytes("value"));
  Bytes chunk_frame = chunk.Encode();
  for (size_t cut = 0; cut < chunk_frame.size(); ++cut) {
    EXPECT_FALSE(
        ReplicaSnapshotChunkRequest::Decode(BytesView(chunk_frame.data(), cut))
            .ok())
        << "chunk cut at " << cut;
  }
  hello.port = 4444;
  Bytes hello_frame = hello.Encode();
  for (size_t cut = 0; cut < hello_frame.size(); ++cut) {
    EXPECT_FALSE(
        ReplicaHelloRequest::Decode(BytesView(hello_frame.data(), cut)).ok())
        << "hello cut at " << cut;
  }
  Bytes beat_frame =
      ReplicaHeartbeatRequest{1, 9, {{"h", 4444, 3}}}.Encode();
  for (size_t cut = 0; cut < beat_frame.size(); ++cut) {
    EXPECT_FALSE(
        ReplicaHeartbeatRequest::Decode(BytesView(beat_frame.data(), cut))
            .ok())
        << "heartbeat cut at " << cut;
  }
}

TEST(WireFuzz, InsertChunkBatchRejectsMalformedFrames) {
  auto entry = [](uint64_t index) {
    InsertChunkBatchRequest::Entry e;
    e.chunk_index = index;
    e.digest_blob = ToBytes("digest");
    e.payload = ToBytes("payload");
    return e;
  };

  // Well-formed baseline round-trips.
  InsertChunkBatchRequest good;
  good.uuid = 7;
  good.entries = {entry(3), entry(4), entry(9)};
  auto decoded = InsertChunkBatchRequest::Decode(good.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->uuid, 7u);
  ASSERT_EQ(decoded->entries.size(), 3u);
  EXPECT_EQ(decoded->entries[2].chunk_index, 9u);
  EXPECT_EQ(decoded->entries[0].payload, ToBytes("payload"));

  // Overlapping chunk indices: duplicates and regressions are malformed
  // frames, rejected at decode before any server state is touched.
  InsertChunkBatchRequest duplicate;
  duplicate.uuid = 7;
  duplicate.entries = {entry(3), entry(3)};
  EXPECT_EQ(InsertChunkBatchRequest::Decode(duplicate.Encode()).status().code(),
            StatusCode::kInvalidArgument);
  InsertChunkBatchRequest regressing;
  regressing.uuid = 7;
  regressing.entries = {entry(5), entry(4)};
  EXPECT_EQ(
      InsertChunkBatchRequest::Decode(regressing.Encode()).status().code(),
      StatusCode::kInvalidArgument);

  // Truncated counts: a frame claiming more entries than its bytes can
  // hold fails cleanly at every cut point.
  Bytes encoded = good.Encode();
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(
        InsertChunkBatchRequest::Decode(BytesView(encoded.data(), cut)).ok())
        << "cut at " << cut;
  }

  // A count larger than the actual entry list (claims 4, carries 2).
  BinaryWriter w;
  w.PutU64(7);
  w.PutVar(4);
  for (uint64_t i = 0; i < 2; ++i) {
    w.PutU64(i);
    w.PutBytes(ToBytes("digest"));
    w.PutBytes(ToBytes("payload"));
  }
  EXPECT_FALSE(InsertChunkBatchRequest::Decode(w.data()).ok());
}

TEST(WireFuzz, FrameHeaderBoundsBodyLength) {
  Bytes frame = EncodeFrame(MessageType::kPing, 42, Bytes(32, 0xab));
  BytesView header(frame.data(), kFrameHeaderBytes);

  auto decoded = DecodeFrameHeader(header);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->body_len, 32u);
  EXPECT_EQ(decoded->type, MessageType::kPing);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->trace_id, 0u);  // no context unless the caller stamps one
  EXPECT_EQ(decoded->parent_span_id, 0u);

  // A stamped trace context round-trips through the header fields.
  Bytes traced = EncodeFrame(MessageType::kPing, 42, Bytes(4, 0xab),
                             /*trace_id=*/0xabcdef01, /*parent_span_id=*/77);
  auto traced_header =
      DecodeFrameHeader(BytesView(traced.data(), kFrameHeaderBytes));
  ASSERT_TRUE(traced_header.ok());
  EXPECT_EQ(traced_header->trace_id, 0xabcdef01u);
  EXPECT_EQ(traced_header->parent_span_id, 77u);

  // The bound is inclusive; one byte under it is a clean rejection (the
  // attacker-controlled u32 must never drive an allocation).
  EXPECT_TRUE(DecodeFrameHeader(header, 32).ok());
  auto rejected = DecodeFrameHeader(header, 31);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // A hostile header claiming a 4 GiB body fails the default bound. The
  // trailing trace id + parent span id bring the hand-built header to the
  // full 29 bytes, so it fails the bound, not a truncation check.
  BinaryWriter hostile;
  hostile.PutU32(0xffffffffu);
  hostile.PutU8(static_cast<uint8_t>(MessageType::kPing));
  hostile.PutU64(1);
  hostile.PutU64(0xdeadbeef);  // trace id
  hostile.PutU64(0x1);         // parent span id
  ASSERT_EQ(hostile.size(), kFrameHeaderBytes);
  EXPECT_FALSE(DecodeFrameHeader(hostile.data()).ok());

  // Truncation at every byte boundary fails cleanly.
  for (size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
    EXPECT_FALSE(DecodeFrameHeader(BytesView(frame.data(), cut)).ok())
        << "header cut at " << cut;
  }
}

TEST(WireFuzz, FrameHeaderSurvivesRandomBytes) {
  crypto::DeterministicRng rng(0x17a3);
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(kFrameHeaderBytes);
    rng.Fill(garbage);
    auto decoded = DecodeFrameHeader(garbage, 1 << 20);
    if (decoded.ok()) {
      EXPECT_LE(decoded->body_len, 1u << 20);  // the bound always holds
    }
  }
}

TEST(WireFuzz, ResponseBodyRoundTripsStatusCodes) {
  for (auto code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kPermissionDenied,
        StatusCode::kInvalidArgument, StatusCode::kUnavailable}) {
    Status in = code == StatusCode::kOk ? Status::Ok()
                                        : Status(code, "some message");
    Bytes body = EncodeResponseBody(in, ToBytes("data"));
    auto out = DecodeResponseBody(body);
    if (code == StatusCode::kOk) {
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(ToString(*out), "data");
    } else {
      EXPECT_EQ(out.status().code(), code);
      EXPECT_EQ(out.status().message(), "some message");
    }
  }
}

}  // namespace
}  // namespace tc::net
