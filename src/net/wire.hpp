// Wire protocol: length-prefixed frames carrying typed request/response
// messages (the prototype's Netty+protobuf layer, §5, rebuilt on POSIX
// sockets with a hand-rolled binary codec).
//
// Frame layout:  u32 body_len | u8 msg_type | u64 request_id |
//                u64 trace_id | u64 parent_span_id | body
// Responses use the same frame with msg_type = kResponse and a body of
// status_code | status_msg | payload.
//
// trace_id / parent_span_id carry the distributed trace context across
// every hop (client → router → shard engine → follower): a server adopts a
// nonzero trace_id as-is (falling back to its origin-derived id otherwise),
// and spans opened while handling the request parent under parent_span_id,
// so `tccli trace` can stitch one tree from spans collected on every
// process that touched the request. Zero means "no context".
//
// The transport API is asynchronous and request-id multiplexed: AsyncCall
// returns a PendingCall immediately, many calls can be in flight on one
// connection, and responses match back to their calls by request id in any
// order (the pipelining the paper's Netty stack gets for free, §5).
// Call() is the blocking form for call sites that want one round trip;
// by default it waits on AsyncCall, and a transport may override it to
// read its own response (TcpClient does).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace tc::net {

enum class MessageType : uint8_t {
  kResponse = 0,
  kCreateStream = 1,
  kDeleteStream = 2,
  kInsertChunk = 3,
  kGetRange = 4,
  kGetStatRange = 5,
  kGetStatSeries = 6,
  kRollupStream = 7,
  kDeleteRange = 8,
  kGetStreamInfo = 9,
  kPutGrant = 10,
  kFetchGrants = 11,
  kRevokeGrant = 12,
  kPutEnvelopes = 13,
  kGetEnvelopes = 14,
  kMultiStatRange = 15,
  kPing = 16,
  // Integrity extension (src/integrity): owner-signed stream attestations
  // and Merkle-witnessed chunk reads.
  kPutAttestation = 17,
  kGetAttestation = 18,
  kGetChunkWitnessed = 19,
  // Cluster extension (src/cluster): batched single-stream ingest and
  // per-shard introspection.
  kInsertChunkBatch = 20,
  kClusterInfo = 21,
  // Replication extension (src/replica): primary→follower log shipping.
  // These target a follower's ReplicaApplier endpoint, never the cluster
  // router or a serving engine. Values 22 and 23 carried the retired
  // PR 3-era frames (kReplicaOps before it grew a shard field, and the
  // monolithic kReplicaSnapshot superseded by the chunked Begin/Chunk/End
  // stream); both stay reserved so old captures cannot be misparsed as
  // the new layouts.
  // Follower-daemon topology (src/replica): a follower process registers
  // with the primary (kReplicaHello, sent to the primary's serving port),
  // the primary dials back and catches it up with a bounded-memory chunk
  // stream, then keeps it alive with group-status heartbeats.
  kReplicaHello = 24,
  kReplicaSnapshotBegin = 25,
  kReplicaSnapshotChunk = 26,
  kReplicaSnapshotEnd = 27,
  kReplicaHeartbeat = 28,
  kReplicaOps = 29,
  // Observability extension (src/common/metrics): snapshot of the
  // process-wide metrics registry (counters, gauges, latency histograms).
  kMetricsInfo = 30,
  // Observability extension (src/common/trace): drain the process-wide
  // span ring (kTraceInfo, optionally filtered to one trace id) and the
  // structured event journal (kEventsInfo). Both are reads — `tccli trace`
  // must never queue behind a pipelined ingest stream.
  kTraceInfo = 31,
  kEventsInfo = 32,
};

/// Stable snake_case name for one message type ("insert_chunk",
/// "get_stat_range", ...) — the `type` label on per-request metrics and the
/// op name on slow-op trace lines. Unknown values map to "unknown".
const char* MessageTypeName(MessageType type);

/// True for message types that mutate server state. The TCP server keeps
/// same-connection mutations in arrival order (a pipelined ingest stream
/// must apply batch N before batch N+1; replica op shipments must apply in
/// sequence) while non-mutating requests dispatch concurrently — a slow
/// query cannot head-of-line-block a Ping on the same connection.
/// Unrecognised types are conservatively treated as mutations.
bool IsMutation(MessageType type);

/// Server-side dispatch: handle one decoded request, produce a response
/// payload. Implementations must be thread-safe — the TCP server dispatches
/// requests from many connections (and non-mutating requests from the same
/// connection) concurrently.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  virtual Result<Bytes> Handle(MessageType type, BytesView body) = 0;
};

namespace detail {
struct CallState;
}

/// Completion handle for one asynchronous transport call. Cheap to copy
/// (shared state); safe to Wait from any thread, and safe to keep after the
/// transport that issued it is destroyed (the transport fails its pending
/// calls before going away).
class PendingCall {
 public:
  /// Default-constructed handles are empty; Wait() on one reports Internal.
  PendingCall() = default;

  /// Block until the response (or the transport error that replaced it)
  /// arrives. Idempotent — repeated waits return the same result.
  TC_BLOCKING [[nodiscard]] Result<Bytes> Wait() const;

  /// Non-blocking probe: the result if the call has completed, nullopt
  /// while still in flight.
  [[nodiscard]] std::optional<Result<Bytes>> TryGet() const;

  /// True once the call has a result.
  bool done() const;

 private:
  friend class CallCompleter;
  explicit PendingCall(std::shared_ptr<detail::CallState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CallState> state_;
};

/// Completion callback, invoked exactly once when the call completes — on
/// whichever thread reads the response frame (TcpClient: its reader thread
/// or a caller blocked in Call on the same connection), an executor thread
/// (shard channels), or inline inside AsyncCall (InProcTransport,
/// transport errors). Must not block and must not call back into the
/// transport.
using CallCallback = std::function<void(const Result<Bytes>&)>;

/// Producer side of a PendingCall: transports make one per request and
/// complete it when the response (or a connection error) arrives. Copyable;
/// the first Complete wins, later ones are ignored.
class CallCompleter {
 public:
  explicit CallCompleter(CallCallback callback = nullptr);

  PendingCall pending() const { return PendingCall(state_); }
  void Complete(Result<Bytes> result) const;

 private:
  std::shared_ptr<detail::CallState> state_;
};

/// Client-side transport. AsyncCall sends one request and returns a handle
/// immediately; implementations support many concurrent in-flight calls
/// (the request body is consumed before AsyncCall returns — the view need
/// not outlive the call). Both entry points are thread-safe in all
/// implementations.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual PendingCall AsyncCall(MessageType type, BytesView body,
                                CallCallback on_done = nullptr) = 0;

  /// Blocking form: one request, await its response. The default waits on
  /// AsyncCall; transports may override it with a cheaper path.
  TC_BLOCKING virtual Result<Bytes> Call(MessageType type, BytesView body) {
    return AsyncCall(type, body).Wait();
  }
};

/// Zero-copy in-process transport: directly invokes the handler; the call
/// completes before AsyncCall returns. Used by microbenchmarks (the paper's
/// microbenchmarks exclude network delay) and by tests that don't need
/// sockets.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(std::shared_ptr<RequestHandler> handler)
      : handler_(std::move(handler)) {}

  PendingCall AsyncCall(MessageType type, BytesView body,
                        CallCallback on_done = nullptr) override {
    CallCompleter completer(std::move(on_done));
    completer.Complete(handler_->Handle(type, body));
    return completer.pending();
  }

 private:
  std::shared_ptr<RequestHandler> handler_;
};

/// Fixed frame header as it appears on the wire (exposed for tests and the
/// frame fuzzers).
struct FrameHeader {
  uint32_t body_len = 0;
  MessageType type = MessageType::kResponse;
  uint64_t request_id = 0;
  // Distributed trace context (0 = none): the origin trace id and the span
  // the request descends from on the sending process.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

inline constexpr size_t kFrameHeaderBytes = 29;

/// Default per-frame body cap. The header's body_len is attacker-controlled
/// u32; every decoder bounds it before allocating (both transport ends take
/// a configurable max).
inline constexpr size_t kDefaultMaxFrameBody = 512u << 20;

/// Decode the fixed 29-byte header, rejecting bodies larger than `max_body`
/// with a clean status (never an allocation).
Result<FrameHeader> DecodeFrameHeader(BytesView header,
                                      size_t max_body = kDefaultMaxFrameBody);

/// Encode a frame (request or response) into bytes ready for the socket.
/// trace_id/parent_span_id default to 0 ("no context") — the TCP client
/// stamps the caller's live trace context on outgoing requests.
Bytes EncodeFrame(MessageType type, uint64_t request_id, BytesView body,
                  uint64_t trace_id = 0, uint64_t parent_span_id = 0);

/// Encode the standard response body.
Bytes EncodeResponseBody(const Status& status, BytesView payload);

/// Decode a response body back into (status, payload).
Result<Bytes> DecodeResponseBody(BytesView body);

}  // namespace tc::net
