// Wire protocol tests: frame/response encoding, message codec round trips
// for every request type, real TCP loopback exchanges, and the multiplexed
// transport (many in-flight AsyncCalls on one socket, out-of-order
// completion, mutation ordering, error fan-out, hostile framing).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/metrics.hpp"
#include "net/messages.hpp"
#include "net/metrics_http.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"

namespace tc::net {
namespace {

TEST(Wire, ResponseBodyRoundTripOk) {
  Bytes payload = ToBytes("result");
  Bytes body = EncodeResponseBody(Status::Ok(), payload);
  auto decoded = DecodeResponseBody(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

TEST(Wire, ResponseBodyCarriesError) {
  Bytes body = EncodeResponseBody(NotFound("missing"), {});
  auto decoded = DecodeResponseBody(body);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.status().message(), "missing");
}

// The full read/write classification the transport's ordering guarantees
// rest on. Every frame type is listed: a new MessageType must be added to
// one of these tables (and to IsMutation's exhaustive switch — the
// compiler and tools/lint/tc_lint.py both enforce that) or this test
// fails, which is the point.
TEST(Wire, IsMutationClassifiesEveryMessageType) {
  const MessageType mutations[] = {
      MessageType::kCreateStream,        MessageType::kDeleteStream,
      MessageType::kInsertChunk,         MessageType::kRollupStream,
      MessageType::kDeleteRange,         MessageType::kPutGrant,
      MessageType::kRevokeGrant,         MessageType::kPutEnvelopes,
      MessageType::kPutAttestation,      MessageType::kInsertChunkBatch,
      MessageType::kReplicaHello,        MessageType::kReplicaSnapshotBegin,
      MessageType::kReplicaSnapshotChunk, MessageType::kReplicaSnapshotEnd,
      MessageType::kReplicaHeartbeat,    MessageType::kReplicaOps,
  };
  const MessageType reads[] = {
      MessageType::kResponse,       MessageType::kGetRange,
      MessageType::kGetStatRange,   MessageType::kGetStatSeries,
      MessageType::kGetStreamInfo,  MessageType::kFetchGrants,
      MessageType::kGetEnvelopes,   MessageType::kMultiStatRange,
      MessageType::kPing,           MessageType::kGetAttestation,
      MessageType::kGetChunkWitnessed, MessageType::kClusterInfo,
      MessageType::kMetricsInfo,
      // Trace and event queries must pipeline as reads: `tccli trace` of a
      // slow ingest would otherwise queue behind the very stream it is
      // diagnosing.
      MessageType::kTraceInfo,         MessageType::kEventsInfo,
  };
  for (MessageType type : mutations) {
    EXPECT_TRUE(IsMutation(type))
        << "type " << static_cast<int>(type) << " must order as a mutation";
  }
  for (MessageType type : reads) {
    EXPECT_FALSE(IsMutation(type))
        << "type " << static_cast<int>(type) << " must pipeline as a read";
  }
  // An out-of-enum byte (a frame from a newer peer) must classify as a
  // mutation: ordering conservatively is safe, reordering is not.
  EXPECT_TRUE(IsMutation(static_cast<MessageType>(0xEE)));
}

TEST(Wire, FrameLayout) {
  // u32 body_len | u8 type | u64 request_id | u64 trace_id | u64 parent —
  // 29 header bytes before the body.
  Bytes frame = EncodeFrame(MessageType::kPing, 42, ToBytes("xy"));
  ASSERT_EQ(kFrameHeaderBytes, 29u);
  ASSERT_EQ(frame.size(), 29u + 2u);
  // body_len little-endian
  EXPECT_EQ(frame[0], 2);
  EXPECT_EQ(frame[4], static_cast<uint8_t>(MessageType::kPing));
  // An unstamped frame carries a zero trace context.
  for (size_t i = 13; i < 29; ++i) EXPECT_EQ(frame[i], 0) << "byte " << i;
}

StreamConfig SampleConfig() {
  StreamConfig c;
  c.name = "hr/device-1";
  c.t0 = 1700000000000;
  c.delta_ms = 10'000;
  c.schema.with_sum = c.schema.with_count = true;
  c.schema.with_sumsq = true;
  c.schema.hist_bins = 8;
  c.schema.hist_min = 0;
  c.schema.hist_width = 250;
  c.cipher = CipherKind::kHeac;
  c.fanout = 64;
  c.compression = 1;
  return c;
}

TEST(Messages, CreateStreamRoundTrip) {
  CreateStreamRequest req{99, SampleConfig()};
  auto back = CreateStreamRequest::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->uuid, 99u);
  EXPECT_EQ(back->config, req.config);
}

TEST(Messages, InsertChunkRoundTrip) {
  InsertChunkRequest req{7, 123, Bytes{1, 2, 3}, Bytes{9, 9}};
  auto back = InsertChunkRequest::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->uuid, 7u);
  EXPECT_EQ(back->chunk_index, 123u);
  EXPECT_EQ(back->digest_blob, req.digest_blob);
  EXPECT_EQ(back->payload, req.payload);
}

TEST(Messages, StatRangeRoundTrip) {
  StatRangeRequest req{5, {100, 200}};
  auto back = StatRangeRequest::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->range, (TimeRange{100, 200}));

  StatRangeResponse resp{10, 20, Bytes{5, 6, 7}};
  auto rback = StatRangeResponse::Decode(resp.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->first_chunk, 10u);
  EXPECT_EQ(rback->last_chunk, 20u);
  EXPECT_EQ(rback->aggregate_blob, resp.aggregate_blob);
}

TEST(Messages, SeriesRoundTrip) {
  StatSeriesResponse resp;
  resp.first_chunk = 4;
  resp.granularity_chunks = 6;
  resp.aggregates = {Bytes{1}, Bytes{2, 2}, Bytes{3, 3, 3}};
  auto back = StatSeriesResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->aggregates.size(), 3u);
  EXPECT_EQ(back->aggregates[2], (Bytes{3, 3, 3}));
}

TEST(Messages, MultiStatRoundTrip) {
  MultiStatRangeRequest req{{1, 2, 3}, {0, 500}};
  auto back = MultiStatRangeRequest::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->uuids, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(Messages, GrantMessagesRoundTrip) {
  PutGrantRequest put{8, "dr-alice", 3, Bytes{0xaa, 0xbb}};
  auto pback = PutGrantRequest::Decode(put.Encode());
  ASSERT_TRUE(pback.ok());
  EXPECT_EQ(pback->principal_id, "dr-alice");

  FetchGrantsResponse fetch;
  fetch.grants.push_back({8, 3, Bytes{0xaa}});
  auto fback = FetchGrantsResponse::Decode(fetch.Encode());
  ASSERT_TRUE(fback.ok());
  ASSERT_EQ(fback->grants.size(), 1u);
  EXPECT_EQ(fback->grants[0].grant_id, 3u);

  RevokeGrantRequest rev{8, "dr-alice", 0};
  auto rback = RevokeGrantRequest::Decode(rev.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->grant_id, 0u);
}

TEST(Messages, EnvelopeMessagesRoundTrip) {
  PutEnvelopesRequest put{4, 6, 10, {Bytes{1}, Bytes{2}}};
  auto pback = PutEnvelopesRequest::Decode(put.Encode());
  ASSERT_TRUE(pback.ok());
  EXPECT_EQ(pback->envelopes.size(), 2u);

  GetEnvelopesRequest get{4, 6, 10, 11};
  auto gback = GetEnvelopesRequest::Decode(get.Encode());
  ASSERT_TRUE(gback.ok());
  EXPECT_EQ(gback->last_index, 11u);
}

TEST(Messages, RollupAndDeleteRoundTrip) {
  RollupStreamRequest roll{1, 2, 6, {0, 0}};
  auto rback = RollupStreamRequest::Decode(roll.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->granularity_chunks, 6u);

  DeleteRangeRequest del{1, {5, 10}};
  auto dback = DeleteRangeRequest::Decode(del.Encode());
  ASSERT_TRUE(dback.ok());
  EXPECT_EQ(dback->range, (TimeRange{5, 10}));
}

TEST(Messages, ReplicaHandshakeRoundTrip) {
  ReplicaHelloRequest hello;
  hello.shard = 3;
  hello.num_shards = 4;
  hello.applied_seq = 512;
  hello.store_fingerprint = 0xabcdef;
  hello.host = "10.0.0.7";
  hello.port = 4434;
  auto hback = ReplicaHelloRequest::Decode(hello.Encode());
  ASSERT_TRUE(hback.ok());
  EXPECT_EQ(hback->shard, 3u);
  EXPECT_EQ(hback->num_shards, 4u);

  // A shard id outside its own shard count is malformed on its face.
  hello.num_shards = 2;
  EXPECT_EQ(ReplicaHelloRequest::Decode(hello.Encode()).status().code(),
            StatusCode::kInvalidArgument);
  hello.num_shards = 4;
  EXPECT_EQ(hback->applied_seq, 512u);
  EXPECT_EQ(hback->store_fingerprint, 0xabcdefu);
  EXPECT_EQ(hback->host, "10.0.0.7");
  EXPECT_EQ(hback->port, 4434u);

  ReplicaHelloResponse resp{99, 500};
  auto rback = ReplicaHelloResponse::Decode(resp.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback->head_seq, 99u);
  EXPECT_EQ(rback->heartbeat_ms, 500u);

  ReplicaHeartbeatRequest beat;
  beat.shard = 1;
  beat.head_seq = 77;
  beat.peers = {{"10.0.0.7", 4434, 70}, {"10.0.0.8", 4435, 77}};
  auto bback = ReplicaHeartbeatRequest::Decode(beat.Encode());
  ASSERT_TRUE(bback.ok());
  EXPECT_EQ(bback->head_seq, 77u);
  ASSERT_EQ(bback->peers.size(), 2u);
  EXPECT_EQ(bback->peers[1], beat.peers[1]);
}

TEST(Messages, ReplicaSnapshotStreamRoundTrip) {
  ReplicaSnapshotBeginRequest begin{2, 0x1d0cULL, 41};
  auto bback = ReplicaSnapshotBeginRequest::Decode(begin.Encode());
  ASSERT_TRUE(bback.ok());
  EXPECT_EQ(bback->shard, 2u);
  EXPECT_EQ(bback->origin, 0x1d0cULL);
  EXPECT_EQ(bback->seq, 41u);

  ReplicaSnapshotChunkRequest chunk;
  chunk.shard = 2;
  chunk.seq = 41;
  chunk.first_index = 16;
  chunk.entries = {{"chunk/7/0", Bytes{1, 2, 3}}, {"meta/streams", Bytes{9}}};
  auto cback = ReplicaSnapshotChunkRequest::Decode(chunk.Encode());
  ASSERT_TRUE(cback.ok());
  EXPECT_EQ(cback->first_index, 16u);
  ASSERT_EQ(cback->entries.size(), 2u);
  EXPECT_EQ(cback->entries[0].first, "chunk/7/0");
  EXPECT_EQ(cback->entries[0].second, (Bytes{1, 2, 3}));

  ReplicaSnapshotEndRequest end{2, 41, 18};
  auto eback = ReplicaSnapshotEndRequest::Decode(end.Encode());
  ASSERT_TRUE(eback.ok());
  EXPECT_EQ(eback->total_entries, 18u);

  ReplicaSnapshotAckResponse ack{18};
  auto aback = ReplicaSnapshotAckResponse::Decode(ack.Encode());
  ASSERT_TRUE(aback.ok());
  EXPECT_EQ(aback->entries, 18u);
}

TEST(Messages, ClusterInfoCarriesFailoverHealth) {
  ClusterInfoResponse resp;
  ClusterInfoResponse::ShardInfo shard;
  shard.shard = 4;
  shard.num_streams = 10;
  shard.index_bytes = 4096;
  shard.replicas = 2;
  shard.ack_mode = ClusterInfoResponse::kAckQuorum;
  shard.max_lag_ops = 3;
  shard.remote_followers = 2;
  shard.auto_failover = 1;
  shard.promotions = 1;
  shard.snapshot_chunks = 640;
  shard.store_dead_bytes = 123456;
  shard.store_compactions = 7;
  resp.shards.push_back(shard);
  auto back = ClusterInfoResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->shards.size(), 1u);
  EXPECT_EQ(back->shards[0].remote_followers, 2u);
  EXPECT_EQ(back->shards[0].auto_failover, 1u);
  EXPECT_EQ(back->shards[0].promotions, 1u);
  EXPECT_EQ(back->shards[0].snapshot_chunks, 640u);
  EXPECT_EQ(back->shards[0].store_dead_bytes, 123456u);
  EXPECT_EQ(back->shards[0].store_compactions, 7u);
}

TEST(Messages, MetricsInfoRoundTrip) {
  MetricsInfoResponse resp;
  MetricsInfoResponse::Entry counter;
  counter.kind = MetricsInfoResponse::kCounter;
  counter.name = "tc_server_requests_total";
  counter.labels = "type=\"insert_chunk\"";
  counter.value = 12345;
  resp.entries.push_back(counter);
  MetricsInfoResponse::Entry gauge;
  gauge.kind = MetricsInfoResponse::kGauge;
  gauge.name = "tc_replica_lag_ops";
  gauge.labels = "shard=\"3\"";
  gauge.value = -7;  // gauges are signed; the codec must not round-trip
                     // through an unsigned narrowing
  resp.entries.push_back(gauge);
  MetricsInfoResponse::Entry hist;
  hist.kind = MetricsInfoResponse::kHistogram;
  hist.name = "tc_server_request_seconds";
  hist.labels = "type=\"get_stat_range\"";
  hist.count = 100;
  hist.sum = 123456;
  hist.max = 9001;
  hist.p50 = 127;
  hist.p95 = 2047;
  hist.p99 = 4095;
  resp.entries.push_back(hist);

  auto back = MetricsInfoResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->entries.size(), 3u);
  EXPECT_EQ(back->entries[0].kind, MetricsInfoResponse::kCounter);
  EXPECT_EQ(back->entries[0].name, "tc_server_requests_total");
  EXPECT_EQ(back->entries[0].labels, "type=\"insert_chunk\"");
  EXPECT_EQ(back->entries[0].value, 12345);
  EXPECT_EQ(back->entries[1].value, -7);
  EXPECT_EQ(back->entries[2].count, 100u);
  EXPECT_EQ(back->entries[2].max, 9001u);
  EXPECT_EQ(back->entries[2].p50, 127u);
  EXPECT_EQ(back->entries[2].p99, 4095u);
}

TEST(Messages, MetricsInfoRejectsUnknownKind) {
  MetricsInfoResponse resp;
  MetricsInfoResponse::Entry e;
  e.kind = MetricsInfoResponse::kCounter;
  e.name = "tc_x_total";
  resp.entries.push_back(e);
  Bytes enc = resp.Encode();
  // The kind byte follows the entry-count varint (count 1 encodes as one
  // byte); corrupt it to an undefined kind.
  enc[1] = 0x7F;
  EXPECT_FALSE(MetricsInfoResponse::Decode(enc).ok());
}

TEST(Messages, TraceInfoRoundTrip) {
  TraceInfoRequest req{0xfeed, 1};
  auto qback = TraceInfoRequest::Decode(req.Encode());
  ASSERT_TRUE(qback.ok());
  EXPECT_EQ(qback->trace_id, 0xfeedu);
  EXPECT_EQ(qback->slow_only, 1u);
  // slow_only is a boolean flag: anything above 1 is malformed.
  BinaryWriter w;
  w.PutU64(0xfeed);
  w.PutU8(9);
  EXPECT_EQ(TraceInfoRequest::Decode(w.data()).status().code(),
            StatusCode::kInvalidArgument);

  TraceInfoResponse resp;
  TraceInfoResponse::Span span;
  span.trace_id = 0xfeed;
  span.span_id = 21;
  span.parent_span_id = 9;
  span.op = "router_dispatch";
  span.msg_type = 11;
  span.shard = 0xffffffffu;
  span.start_us = 1'700'000'000'123'456;
  span.duration_us = 812;
  span.slow = 1;
  resp.spans.push_back(span);
  resp.dropped = 3;
  auto back = TraceInfoResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->spans.size(), 1u);
  EXPECT_EQ(back->spans[0].trace_id, 0xfeedu);
  EXPECT_EQ(back->spans[0].span_id, 21u);
  EXPECT_EQ(back->spans[0].parent_span_id, 9u);
  EXPECT_EQ(back->spans[0].op, "router_dispatch");
  EXPECT_EQ(back->spans[0].msg_type, 11u);
  EXPECT_EQ(back->spans[0].shard, 0xffffffffu);
  EXPECT_EQ(back->spans[0].start_us, 1'700'000'000'123'456);
  EXPECT_EQ(back->spans[0].duration_us, 812u);
  EXPECT_EQ(back->spans[0].slow, 1u);
  EXPECT_EQ(back->dropped, 3u);
}

TEST(Messages, EventsInfoRoundTrip) {
  EventsInfoRequest req{42};
  auto qback = EventsInfoRequest::Decode(req.Encode());
  ASSERT_TRUE(qback.ok());
  EXPECT_EQ(qback->min_seq, 42u);

  EventsInfoResponse resp;
  resp.events.push_back({7, 1'700'000'000'000, "takeover_election", 2,
                         "silent_ms=3000 candidates=2"});
  resp.dropped = 1;
  auto back = EventsInfoResponse::Decode(resp.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->events.size(), 1u);
  EXPECT_EQ(back->events[0].seq, 7u);
  EXPECT_EQ(back->events[0].wall_ms, 1'700'000'000'000);
  EXPECT_EQ(back->events[0].kind, "takeover_election");
  EXPECT_EQ(back->events[0].shard, 2u);
  EXPECT_EQ(back->events[0].detail, "silent_ms=3000 candidates=2");
  EXPECT_EQ(back->dropped, 1u);
}

TEST(Messages, TruncatedDecodesFail) {
  CreateStreamRequest req{99, SampleConfig()};
  Bytes enc = req.Encode();
  enc.resize(enc.size() / 2);
  EXPECT_FALSE(CreateStreamRequest::Decode(enc).ok());
}

/// Echo handler for transport tests.
class EchoHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(MessageType type, BytesView body) override {
    if (type == MessageType::kPing) return Bytes(body.begin(), body.end());
    return InvalidArgument("echo only answers pings");
  }
};

TEST(InProc, CallRoundTrip) {
  InProcTransport t(std::make_shared<EchoHandler>());
  auto reply = t.Call(MessageType::kPing, ToBytes("hello"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(ToString(*reply), "hello");
  EXPECT_FALSE(t.Call(MessageType::kGetRange, {}).ok());
}

TEST(Tcp, LoopbackRoundTrip) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto reply = (*client)->Call(MessageType::kPing, ToBytes("over tcp"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(ToString(*reply), "over tcp");

  // Errors propagate as status, connection stays usable.
  EXPECT_FALSE((*client)->Call(MessageType::kGetRange, {}).ok());
  auto again = (*client)->Call(MessageType::kPing, ToBytes("still alive"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ToString(*again), "still alive");
  server.Stop();
}

TEST(Tcp, MultipleClients) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = TcpClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      for (int i = 0; i < 50; ++i) {
        std::string msg = "t" + std::to_string(t) + "-" + std::to_string(i);
        auto reply = (*client)->Call(MessageType::kPing, ToBytes(msg));
        if (reply.ok() && ToString(*reply) == msg) ++ok_count;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 200);
  server.Stop();
}

TEST(Tcp, ConnectToClosedPortFails) {
  auto client = TcpClient::Connect("127.0.0.1", 1);  // reserved port
  EXPECT_FALSE(client.ok());
}

// ------------------------------------------------ multiplexed transport

TEST(Async, InProcCompletesBeforeReturning) {
  InProcTransport t(std::make_shared<EchoHandler>());
  std::atomic<bool> callback_ran{false};
  auto call = t.AsyncCall(MessageType::kPing, ToBytes("now"),
                          [&](const Result<Bytes>& r) {
                            callback_ran = r.ok() && ToString(*r) == "now";
                          });
  EXPECT_TRUE(call.done());
  EXPECT_TRUE(callback_ran.load());
  auto probe = call.TryGet();
  ASSERT_TRUE(probe.has_value());
  ASSERT_TRUE(probe->ok());
  EXPECT_EQ(ToString(**probe), "now");
  EXPECT_EQ(ToString(*call.Wait()), "now");  // Wait is idempotent
}

TEST(Async, EmptyPendingCallReportsInternal) {
  PendingCall empty;
  EXPECT_FALSE(empty.done());
  EXPECT_EQ(empty.Wait().status().code(), StatusCode::kInternal);
}

/// Handler that parks requests on per-tag gates: kGetStatRange with a
/// 1-byte body blocks until that tag is released (deterministic slowness —
/// no sleeps), kPing echoes immediately, kInsertChunk records its body's
/// first byte in arrival order.
class GateHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(MessageType type, BytesView body) override {
    if (type == MessageType::kPing) return Bytes(body.begin(), body.end());
    if (type == MessageType::kInsertChunk) {
      std::lock_guard lock(mu_);
      mutation_order_.push_back(body.empty() ? 0xff : body[0]);
      return Bytes{};
    }
    if (type != MessageType::kGetStatRange) {
      return InvalidArgument("gate handler: unsupported type");
    }
    uint8_t tag = body.empty() ? 0 : body[0];
    std::unique_lock lock(mu_);
    ++entered_;
    max_concurrent_ = std::max(max_concurrent_, entered_);
    entered_cv_.notify_all();
    release_cv_.wait(lock, [&] { return released_.count(tag) > 0; });
    --entered_;
    return Bytes{tag};
  }

  void Release(uint8_t tag) {
    std::lock_guard lock(mu_);
    released_.insert(tag);
    release_cv_.notify_all();
  }

  void ReleaseAll() {
    std::lock_guard lock(mu_);
    for (int t = 0; t < 256; ++t) released_.insert(static_cast<uint8_t>(t));
    release_cv_.notify_all();
  }

  /// Block until `n` gated requests are inside the handler concurrently.
  void WaitEntered(size_t n) {
    std::unique_lock lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ >= n; });
  }

  size_t max_concurrent() {
    std::lock_guard lock(mu_);
    return max_concurrent_;
  }

  std::vector<uint8_t> mutation_order() {
    std::lock_guard lock(mu_);
    return mutation_order_;
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_, release_cv_;
  std::set<uint8_t> released_;
  size_t entered_ = 0;
  size_t max_concurrent_ = 0;
  std::vector<uint8_t> mutation_order_;
};

TEST(Tcp, EightInFlightCallsCompleteOutOfOrder) {
  auto gate = std::make_shared<GateHandler>();
  TcpServerOptions options;
  options.dispatch_threads = 8;  // all eight must run concurrently
  TcpServer server(gate, 0, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Eight pipelined requests on ONE socket, all parked inside the handler
  // at once — the multiplexing acceptance bar.
  std::vector<PendingCall> calls;
  for (uint8_t tag = 0; tag < 8; ++tag) {
    calls.push_back(
        (*client)->AsyncCall(MessageType::kGetStatRange, Bytes{tag}));
  }
  gate->WaitEntered(8);
  EXPECT_GE(gate->max_concurrent(), 8u);
  for (const auto& call : calls) EXPECT_FALSE(call.done());

  // Release in reverse order: each response matches its own call by
  // request id even though it arrives before every earlier request's.
  for (int tag = 7; tag >= 0; --tag) {
    gate->Release(static_cast<uint8_t>(tag));
    auto result = calls[tag].Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ((*result)[0], tag);
    if (tag > 0) EXPECT_FALSE(calls[tag - 1].done());
  }
  server.Stop();
}

TEST(Tcp, SlowQueryDoesNotHeadOfLineBlockPing) {
  auto gate = std::make_shared<GateHandler>();
  TcpServerOptions options;
  options.dispatch_threads = 4;
  TcpServer server(gate, 0, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A deliberately slow query, parked server-side...
  auto slow = (*client)->AsyncCall(MessageType::kGetStatRange, Bytes{9});
  gate->WaitEntered(1);

  // ...must not delay a Ping on the SAME connection: this blocking Call
  // completes while the query is still parked (no timing involved — the
  // query cannot finish until we release it below).
  auto ping = (*client)->Call(MessageType::kPing, ToBytes("urgent"));
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ToString(*ping), "urgent");
  EXPECT_FALSE(slow.done());

  gate->Release(9);
  auto result = slow.Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0], 9);
  server.Stop();
}

TEST(Tcp, PipelinedMutationsApplyInSendOrder) {
  auto gate = std::make_shared<GateHandler>();
  TcpServerOptions options;
  options.dispatch_threads = 4;
  TcpServer server(gate, 0, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Ten pipelined mutations; the concurrent dispatcher must still apply
  // them in exactly the order they were sent (batch N+1 may not overtake
  // batch N), even with reads interleaved.
  std::vector<PendingCall> calls;
  for (uint8_t i = 0; i < 10; ++i) {
    calls.push_back((*client)->AsyncCall(MessageType::kInsertChunk, Bytes{i}));
    if (i % 3 == 0) {
      ASSERT_TRUE((*client)->Call(MessageType::kPing, {}).ok());
    }
  }
  for (auto& call : calls) ASSERT_TRUE(call.Wait().ok());
  EXPECT_EQ(gate->mutation_order(),
            (std::vector<uint8_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  server.Stop();
}

TEST(Tcp, CompletionCallbackFires) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  Bytes payload;
  (*client)->AsyncCall(MessageType::kPing, ToBytes("cb"),
                       [&](const Result<Bytes>& r) {
                         std::lock_guard lock(mu);
                         fired = true;
                         if (r.ok()) payload = *r;
                         cv.notify_all();
                       });
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return fired; });
  EXPECT_EQ(ToString(payload), "cb");
  server.Stop();
}

/// Scripted raw peer: accepts one connection and lets the test read
/// request frames / write arbitrary response bytes — for protocol
/// violations a real TcpServer would never produce.
class RawServer {
 public:
  RawServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 4) != 0) {
      std::abort();
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }

  ~RawServer() {
    CloseConn();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  void Accept() { conn_fd_ = ::accept(listen_fd_, nullptr, nullptr); }

  /// Read one request frame; returns its header (abort on malformed
  /// input, which no test intends to send).
  FrameHeader ReadRequest() {
    auto header = TryReadRequest();
    if (!header) std::abort();
    return *header;
  }

  /// Like ReadRequest, but a closed/failed connection returns nullopt
  /// (tests that race the client's error paths use this).
  std::optional<FrameHeader> TryReadRequest() {
    auto frame = TryReadRequestFrame();
    if (!frame) return std::nullopt;
    return frame->first;
  }

  /// Like TryReadRequest, but also returns the request body.
  std::optional<std::pair<FrameHeader, Bytes>> TryReadRequestFrame() {
    Bytes header(kFrameHeaderBytes);
    if (!ReadExact(conn_fd_, header).ok()) return std::nullopt;
    auto decoded = DecodeFrameHeader(header);
    if (!decoded.ok()) return std::nullopt;
    Bytes body(decoded->body_len);
    if (!ReadExact(conn_fd_, body).ok()) return std::nullopt;
    return std::make_pair(*decoded, std::move(body));
  }

  // Write failures are ignored: tests racing the client's teardown paths
  // may legitimately write into a just-shutdown socket.
  void WriteResponse(uint64_t request_id, BytesView payload) {
    Bytes frame = EncodeFrame(MessageType::kResponse, request_id,
                              EncodeResponseBody(Status::Ok(), payload));
    (void)WriteAll(conn_fd_, frame);
  }

  void WriteRaw(BytesView raw) { (void)WriteAll(conn_fd_, raw); }

  void CloseConn() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    conn_fd_ = -1;
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
};

TEST(Tcp, DisconnectFansErrorOutToAllPendingCalls) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  std::vector<PendingCall> calls;
  for (int i = 0; i < 5; ++i) {
    calls.push_back((*client)->AsyncCall(MessageType::kPing, ToBytes("x")));
  }
  for (int i = 0; i < 5; ++i) raw.ReadRequest();
  raw.CloseConn();  // mid-stream disconnect with five calls pending

  for (auto& call : calls) {
    auto result = call.Wait();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  // The connection is terminally failed: later calls fail immediately.
  EXPECT_FALSE((*client)->Call(MessageType::kPing, {}).ok());
}

TEST(Tcp, ResponseForUnknownRequestIdFailsConnection) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  auto call = (*client)->AsyncCall(MessageType::kPing, {});
  auto header = raw.ReadRequest();
  raw.WriteResponse(header.request_id + 1000, ToBytes("for nobody"));

  auto result = call.Wait();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(Tcp, DuplicateResponseIdFailsLaterCalls) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  auto first = (*client)->AsyncCall(MessageType::kPing, {});
  auto second = (*client)->AsyncCall(MessageType::kPing, {});
  auto h1 = raw.ReadRequest();
  raw.ReadRequest();
  raw.WriteResponse(h1.request_id, ToBytes("once"));
  auto r1 = first.Wait();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(ToString(*r1), "once");

  // The duplicate id no longer matches anything: a protocol violation that
  // fails the remaining call rather than mis-delivering a response.
  raw.WriteResponse(h1.request_id, ToBytes("again"));
  auto r2 = second.Wait();
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kDataLoss);
}

TEST(Tcp, NonResponseFrameFromServerFailsConnection) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  auto call = (*client)->AsyncCall(MessageType::kPing, {});
  auto header = raw.ReadRequest();
  raw.WriteRaw(EncodeFrame(MessageType::kPing, header.request_id, {}));
  EXPECT_EQ(call.Wait().status().code(), StatusCode::kDataLoss);
}

TEST(Tcp, OversizedResponseFrameRejectedByClient) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port(),
                                   /*connect_timeout_ms=*/0,
                                   /*max_frame_body=*/1 << 20);
  ASSERT_TRUE(client.ok());
  raw.Accept();

  auto call = (*client)->AsyncCall(MessageType::kPing, {});
  auto header = raw.ReadRequest();
  // Claim a 256 MiB body without sending it: the client must reject the
  // claim itself, not allocate and wait.
  Bytes huge_header = EncodeFrame(MessageType::kResponse, header.request_id,
                                  {});
  huge_header[0] = 0x00;
  huge_header[1] = 0x00;
  huge_header[2] = 0x00;
  huge_header[3] = 0x10;  // body_len = 256 MiB little-endian
  raw.WriteRaw(BytesView(huge_header.data(), kFrameHeaderBytes));
  EXPECT_EQ(call.Wait().status().code(), StatusCode::kInvalidArgument);
}

TEST(Tcp, OversizedRequestFrameRejectedByServer) {
  TcpServerOptions options;
  options.max_frame_body = 1024;
  TcpServer server(std::make_shared<EchoHandler>(), 0, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Within bounds: served normally.
  ASSERT_TRUE((*client)->Call(MessageType::kPing, Bytes(512, 0x01)).ok());
  // Beyond bounds: a clean InvalidArgument response, not an abort or a
  // 4 GiB allocation, then the connection drops.
  auto result = (*client)->Call(MessageType::kPing, Bytes(4096, 0x01));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  server.Stop();
}

TEST(Tcp, OpTimeoutFailsPendingCallsButSparesIdleConnections) {
  {
    // A peer that accepts and then never answers must fail the call.
    RawServer raw;
    auto client = TcpClient::Connect("127.0.0.1", raw.port());
    ASSERT_TRUE(client.ok());
    raw.Accept();
    ASSERT_TRUE((*client)->SetOpTimeout(150).ok());
    auto call = (*client)->AsyncCall(MessageType::kPing, {});
    raw.ReadRequest();
    auto result = call.Wait();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  {
    // An idle connection (nothing pending) must NOT time out: heartbeat
    // clients sit quiet between beats far longer than the op timeout.
    TcpServer server(std::make_shared<EchoHandler>(), 0);
    ASSERT_TRUE(server.Start().ok());
    auto client = TcpClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->SetOpTimeout(100).ok());
    ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("a")).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto again = (*client)->Call(MessageType::kPing, ToBytes("b"));
    EXPECT_TRUE(again.ok()) << again.status().ToString();
    server.Stop();
  }
}

TEST(Tcp, OpTimeoutAppliesToCallsAlreadyInFlight) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  // The call is issued BEFORE the timeout is configured; SetOpTimeout
  // must restart the clock on in-flight calls, not only future ones.
  auto call = (*client)->AsyncCall(MessageType::kPing, {});
  raw.ReadRequest();
  ASSERT_TRUE((*client)->SetOpTimeout(150).ok());
  EXPECT_EQ(call.Wait().status().code(), StatusCode::kUnavailable);
}

TEST(Tcp, StuckCallTimesOutWhileOtherResponsesFlow) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();
  ASSERT_TRUE((*client)->SetOpTimeout(200).ok());

  // One request the peer never answers...
  auto stuck = (*client)->AsyncCall(MessageType::kGetStatRange, {});
  raw.ReadRequest();
  // ...while a stream of answered pings keeps the socket readable the
  // whole time. The stuck call's deadline must still fire.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(5);
  while (!stuck.done() && std::chrono::steady_clock::now() < deadline) {
    auto ping = (*client)->AsyncCall(MessageType::kPing, {});
    auto header = raw.TryReadRequest();
    if (!header) break;  // client tore the connection down: timeout fired
    raw.WriteResponse(header->request_id, ToBytes("pong"));
    if (!ping.Wait().ok()) break;  // connection failed: the timeout fired
  }
  auto result = stuck.Wait();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(Tcp, ConcurrentCallersShareOneSocket) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Many threads hammer ONE TcpClient with blocking Calls; the demux must
  // route every response to its caller (the old transport needed a client
  // per thread for this).
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        std::string msg = "t" + std::to_string(t) + "-" + std::to_string(i);
        auto reply = (*client)->Call(MessageType::kPing, ToBytes(msg));
        if (reply.ok() && ToString(*reply) == msg) ++ok_count;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 200);
  server.Stop();
}

TEST(Tcp, InflightCapBoundsConcurrentHandlers) {
  auto gate = std::make_shared<GateHandler>();
  TcpServerOptions options;
  options.dispatch_threads = 8;  // enough threads to exceed the cap
  options.max_inflight_per_conn = 4;
  TcpServer server(gate, 0, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Sixteen pipelined reads on one socket, every one parked in the
  // handler: the cap admits exactly four, the rest wait unread.
  std::vector<PendingCall> calls;
  for (uint8_t tag = 0; tag < 16; ++tag) {
    calls.push_back(
        (*client)->AsyncCall(MessageType::kGetStatRange, Bytes{tag}));
  }
  gate->WaitEntered(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(gate->max_concurrent(), 4u);
  for (const auto& call : calls) EXPECT_FALSE(call.done());

  gate->ReleaseAll();
  for (uint8_t tag = 0; tag < 16; ++tag) {
    auto result = calls[tag].Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ((*result)[0], tag);
  }
  EXPECT_EQ(gate->max_concurrent(), 4u);
  server.Stop();
}

TEST(Tcp, ParkedCallerStillCompletesAnotherThreadsCallback) {
  auto gate = std::make_shared<GateHandler>();
  TcpServerOptions options;
  options.dispatch_threads = 4;
  TcpServer server(gate, 0, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // One thread parks in a blocking Call whose request is gated server-side.
  std::atomic<bool> slow_done{false};
  Result<Bytes> slow_result = Bytes{};
  std::thread slow([&] {
    slow_result = (*client)->Call(MessageType::kGetStatRange, Bytes{5});
    slow_done = true;
  });
  gate->WaitEntered(1);

  // Another thread's AsyncCall must still complete, callback included,
  // while the first caller is parked.
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  Bytes payload;
  (*client)->AsyncCall(MessageType::kPing, ToBytes("meanwhile"),
                       [&](const Result<Bytes>& r) {
                         std::lock_guard lock(mu);
                         fired = true;
                         if (r.ok()) payload = *r;
                         cv.notify_all();
                       });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return fired; });
  }
  EXPECT_EQ(ToString(payload), "meanwhile");
  EXPECT_FALSE(slow_done.load());

  gate->Release(5);
  slow.join();
  ASSERT_TRUE(slow_result.ok()) << slow_result.status().ToString();
  EXPECT_EQ((*slow_result)[0], 5);
  server.Stop();
}

TEST(Tcp, ConcurrentCallsCompleteWhenSecondResponseArrivesFirst) {
  RawServer raw;
  auto client = TcpClient::Connect("127.0.0.1", raw.port());
  ASSERT_TRUE(client.ok());
  raw.Accept();

  Result<Bytes> results[2] = {Bytes{}, Bytes{}};
  std::vector<std::thread> callers;
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back([&, i] {
      results[i] = (*client)->Call(MessageType::kPing,
                                   ToBytes(i == 0 ? "first" : "second"));
    });
  }
  // Both requests are in flight before either is answered; the one that
  // arrived last is answered first.
  auto a = raw.TryReadRequestFrame();
  auto b = raw.TryReadRequestFrame();
  ASSERT_TRUE(a && b);
  raw.WriteResponse(b->first.request_id, b->second);
  raw.WriteResponse(a->first.request_id, a->second);
  for (auto& th : callers) th.join();

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(ToString(*results[i]), i == 0 ? "first" : "second");
  }
}

TEST(Tcp, PeerClosingMidFrameLeavesOtherConnectionsServing) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("before")).ok());

  // Two raw peers hang up mid-frame: one inside the header, one inside a
  // body the header promised.
  Bytes frame = EncodeFrame(MessageType::kPing, 1, Bytes(100, 0x01));
  for (size_t cut : {size_t{10}, kFrameHeaderBytes + 40}) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(WriteAll(fd, BytesView(frame.data(), cut)).ok());
    ::close(fd);
  }

  auto again = (*client)->Call(MessageType::kPing, ToBytes("after"));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(ToString(*again), "after");
  auto fresh = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(fresh.ok());
  auto reply = (*fresh)->Call(MessageType::kPing, ToBytes("new peer"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(ToString(*reply), "new peer");
  server.Stop();
}

TEST(Tcp, LargeFramesInterleaveWithSmallOnes) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Frames far larger than one socket buffer or one receive pass,
  // pipelined between small ones: every body must come back intact.
  std::vector<Bytes> bodies;
  for (size_t size : {size_t{3}, size_t{(1u << 20) + 3}, size_t{17},
                      size_t{200u << 10}, size_t{0}, size_t{65536}}) {
    Bytes body(size);
    for (size_t i = 0; i < size; ++i) body[i] = static_cast<uint8_t>(i * 7);
    bodies.push_back(std::move(body));
  }
  std::vector<PendingCall> calls;
  for (const Bytes& body : bodies) {
    calls.push_back((*client)->AsyncCall(MessageType::kPing, body));
  }
  for (size_t i = 0; i < bodies.size(); ++i) {
    auto reply = calls[i].Wait();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, bodies[i]) << "frame " << i;
  }
  auto big = (*client)->Call(MessageType::kPing, bodies[1]);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_EQ(*big, bodies[1]);
  server.Stop();
}

size_t ProcessThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Mapped address space of this process in MiB (/proc/self/status VmSize).
/// An exited but never-joined thread keeps its stack mapped.
size_t ProcessVmMiB() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoul(line.substr(7)) / 1024;
    }
  }
  return 0;
}

TEST(Tcp, ClosedConnectionsLeaveNoThreadsBehind) {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto cycle = [&](int connections) {
    for (int i = 0; i < connections; ++i) {
      auto client = TcpClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok());
      ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("x")).ok());
    }
  };
  // Warm up first: the allocator's per-thread arenas are mapped once and
  // then reused, and must not count as growth.
  cycle(20);
  size_t threads_before = ProcessThreadCount();
  size_t vm_before = ProcessVmMiB();
  cycle(200);
  // The server notices each close on its own schedule; give it a moment.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ProcessThreadCount() != threads_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(ProcessThreadCount(), threads_before);
  // No thread stack per served connection stays mapped either (200 of
  // them would be over a GiB).
  EXPECT_LT(ProcessVmMiB(), vm_before + 64);
  server.Stop();
}

/// Runs in a child process: exhausts the descriptor table so the server's
/// accept fails with EMFILE while a connection waits in the backlog, then
/// checks that the server does not spin and serves the waiting connection
/// once a descriptor frees up. Returns the process exit code.
int AcceptBackoffProbe() {
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  if (!server.Start().ok()) return 2;
  auto held = TcpClient::Connect("127.0.0.1", server.port());
  if (!held.ok() || !(*held)->Call(MessageType::kPing, {}).ok()) return 3;
  uint64_t errors_before =
      metrics::GetCounter("tc_net_accept_errors_total").value();

  // Lower the limit close to what is open, fill every free slot, then
  // free exactly one for the waiting connection's client socket.
  int highest = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  rlimit lim{};
  ::getrlimit(RLIMIT_NOFILE, &lim);
  lim.rlim_cur = static_cast<rlim_t>(highest) + 16;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) return 4;
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) {
    fillers.push_back(fd);
  }
  if (fillers.empty()) return 5;
  ::close(fillers.back());
  fillers.pop_back();
  int waiting = ::socket(AF_INET, SOCK_STREAM, 0);
  if (waiting < 0) return 6;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  if (::connect(waiting, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return 7;
  }

  // The server cannot accept it now. It must wait, not spin.
  auto cpu_ms = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return ts.tv_sec * 1000.0 + ts.tv_nsec / 1e6;
  };
  double cpu_before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  double cpu_spent = cpu_ms() - cpu_before;
  if (cpu_spent > 50) {
    std::fprintf(stderr, "server burned %.1f ms of CPU in 200 ms\n",
                 cpu_spent);
    return 8;
  }
  if (metrics::kEnabled &&
      metrics::GetCounter("tc_net_accept_errors_total").value() ==
          errors_before) {
    std::fprintf(stderr, "no accept error was counted\n");
    return 9;
  }

  // One client closes: its descriptors free up and the waiting
  // connection is accepted and served.
  held->reset();
  timeval tv{5, 0};
  ::setsockopt(waiting, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (!WriteAll(waiting, EncodeFrame(MessageType::kPing, 1, ToBytes("late")))
           .ok()) {
    return 10;
  }
  Bytes header(kFrameHeaderBytes);
  if (!ReadExact(waiting, header).ok()) return 11;
  auto decoded = DecodeFrameHeader(header);
  if (!decoded.ok()) return 12;
  Bytes body(decoded->body_len);
  if (!ReadExact(waiting, body).ok()) return 13;
  auto reply = DecodeResponseBody(body);
  if (!reply.ok() || ToString(*reply) != "late") return 14;
  ::close(waiting);
  for (int fd : fillers) ::close(fd);
  server.Stop();
  return 0;
}

TEST(TcpDeathTest, AcceptErrorsBackOffInsteadOfSpinning) {
  // Re-exec rather than fork: the child starts threads, and the lowered
  // descriptor limit must apply to that child alone.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(std::exit(AcceptBackoffProbe()), ::testing::ExitedWithCode(0),
              "");
}

TEST(Tcp, SequentialCallsMakeNoThreadHandoffs) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto& server_hops =
      metrics::GetCounter("tc_net_handoffs_total", "side=\"server\"");
  auto& client_hops =
      metrics::GetCounter("tc_net_handoffs_total", "side=\"client\"");
  uint64_t server_before = server_hops.value();
  uint64_t client_before = client_hops.value();

  // One caller, one request at a time: the server thread that reads each
  // request runs it, and the caller reads its own response.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("hop")).ok());
  }
  EXPECT_EQ(server_hops.value() - server_before, 0u);
  EXPECT_EQ(client_hops.value() - client_before, 0u);
  server.Stop();
}

TEST(Tcp, StopReleasesOpenConnectionsFromTheGauge) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";
  auto& conns = metrics::GetGauge("tc_net_server_conns");
  int64_t before = conns.value();
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("open")).ok());
  EXPECT_EQ(conns.value(), before + 1);

  // The client is still connected when the server stops.
  server.Stop();
  EXPECT_EQ(conns.value(), before);
}

/// Handler that records the ambient trace context of every request: the
/// wire layer must stamp it before dispatching into the handler chain.
class TraceProbeHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(MessageType type, BytesView body) override {
    (void)type;
    std::lock_guard lock(mu_);
    seen_.push_back(metrics::CurrentTraceContext());
    return Bytes(body.begin(), body.end());
  }

  std::vector<metrics::TraceContext> seen() {
    std::lock_guard lock(mu_);
    return seen_;
  }

 private:
  std::mutex mu_;
  std::vector<metrics::TraceContext> seen_;
};

TEST(Tcp, TraceContextPropagatesAcrossLoopback) {
  if (!metrics::kEnabled) GTEST_SKIP() << "tracing compiled out";
  auto probe = std::make_shared<TraceProbeHandler>();
  TcpServer server(probe, 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A caller with an ambient trace context: the client stamps it on the
  // frame, the server adopts it — one logical request, one trace id across
  // the hop.
  metrics::SetCurrentTraceContext({0xabc123, 77});
  ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("traced")).ok());
  metrics::SetCurrentTraceContext({});

  // No ambient context: the server derives a nonzero origin trace id from
  // (connection serial, request id) so the request is traceable anyway.
  ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("origin")).ok());

  auto seen = probe->seen();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].trace_id, 0xabc123u);
  EXPECT_EQ(seen[0].parent_span_id, 77u);
  EXPECT_NE(seen[1].trace_id, 0u);
  EXPECT_NE(seen[1].trace_id, 0xabc123u);
  EXPECT_EQ(seen[1].parent_span_id, 0u);
  server.Stop();
}

/// Raw HTTP/1.0 GET against a loopback port; returns the full response
/// (headers + body) or empty on any socket failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttp, ScrapeServesValidPrometheusExposition) {
  // Generate some wire traffic first so the registry has net counters.
  TcpServer server(std::make_shared<EchoHandler>(), 0);
  ASSERT_TRUE(server.Start().ok());
  auto client = TcpClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*client)->Call(MessageType::kPing, ToBytes("x")).ok());
  }

  bool hook_ran = false;
  MetricsHttpServer metrics(0, [&hook_ran] { hook_ran = true; });
  ASSERT_TRUE(metrics.Start().ok());

  std::string response = HttpGet(metrics.port(), "/metrics");
  ASSERT_FALSE(response.empty());
  EXPECT_TRUE(response.starts_with("HTTP/1.0 200"));
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_TRUE(hook_ran) << "pre-collect hook must run before each render";

  auto body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string body = response.substr(body_at + 4);
  ASSERT_FALSE(body.empty());

  // Every line must be a comment or `name{labels} value` with a numeric
  // value — the Prometheus text-exposition contract.
  std::istringstream lines(body);
  std::string line;
  size_t samples = 0;
  std::set<std::string> sample_names;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "malformed line: " << line;
    std::string name = line.substr(0, space);
    std::string value = line.substr(space + 1);
    EXPECT_FALSE(name.empty()) << line;
    EXPECT_TRUE(name.starts_with("tc_")) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "non-numeric sample value: " << line;
    sample_names.insert(name);
    ++samples;
  }
  if (metrics::kEnabled) {
    EXPECT_GT(samples, 0u);
    // The traffic above must be visible: server-side frame counters and
    // the request histogram family.
    EXPECT_NE(body.find("tc_net_rx_frames_total{side=\"server\"}"),
              std::string::npos)
        << body.substr(0, 512);
    EXPECT_NE(body.find("tc_net_server_conns"), std::string::npos);
    // Histogram summary conformance: every `_count` row has a matching
    // `_sum` row under the same name + labels, and vice versa — Prometheus
    // clients join the pair to compute rates and averages.
    metrics::GetHistogram("tc_test_scrape_seconds").Record(1234);
    std::string again_body = HttpGet(metrics.port(), "/metrics");
    EXPECT_NE(again_body.find("tc_test_scrape_seconds_count"),
              std::string::npos);
    EXPECT_NE(again_body.find("tc_test_scrape_seconds_sum"),
              std::string::npos);
    size_t count_rows = 0;
    for (const auto& name : sample_names) {
      auto mark = name.find("_count");
      if (mark == std::string::npos) continue;
      ++count_rows;
      std::string sum_name = name;
      sum_name.replace(mark, 6, "_sum");
      EXPECT_TRUE(sample_names.contains(sum_name))
          << name << " has no matching " << sum_name << " row";
    }
    for (const auto& name : sample_names) {
      auto mark = name.find("_sum");
      if (mark == std::string::npos) continue;
      std::string count_name = name;
      count_name.replace(mark, 4, "_count");
      EXPECT_TRUE(sample_names.contains(count_name))
          << name << " has no matching " << count_name << " row";
    }
    // The build-identity gauge is registered on first registry touch.
    EXPECT_NE(body.find("tc_build_info{"), std::string::npos);
    EXPECT_NE(body.find("metrics=\"on\""), std::string::npos);
  }

  // Anything but GET /metrics is a 404, and the listener survives it.
  std::string missing = HttpGet(metrics.port(), "/other");
  EXPECT_TRUE(missing.starts_with("HTTP/1.0 404"));
  std::string again = HttpGet(metrics.port(), "/metrics");
  EXPECT_TRUE(again.starts_with("HTTP/1.0 200"));

  metrics.Stop();
  server.Stop();
}

TEST(MetricsHttp, EphemeralPortIsResolvedAfterStart) {
  MetricsHttpServer metrics(0);
  ASSERT_TRUE(metrics.Start().ok());
  EXPECT_GT(metrics.port(), 0);
  metrics.Stop();
}

}  // namespace
}  // namespace tc::net
