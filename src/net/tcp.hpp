// Multiplexed TCP transport.
//
// Server: a leader/follower pool over one epoll set. One pool thread at a
// time waits in epoll_wait; on a wake it promotes a follower to leader,
// pulls every complete frame the connection has sent in one buffered recv
// pass, re-arms the connection and runs the first request itself, queueing
// any further frames for the followers. Requests from one connection are
// processed concurrently — mutations in strict arrival order (a pipelined
// ingest stream must apply in send order), non-mutating requests freely
// interleaved — and responses leave through a per-connection outbound
// queue, so a slow query never head-of-line-blocks a Ping on the same
// connection.
//
// Client: framed request/response with request-id demultiplexing. One
// thread at a time holds a connection's read role and matches every
// response frame to its in-flight call: a blocking Call takes the role
// when no one else is reading and reads until its own response lands
// (completing other calls' frames on the way), and a demux reader thread
// reads only while calls are pending that no caller is reading for. Many
// calls overlap on one socket and complete out of order; a connection
// error fans out to every pending call. Loopback-oriented (the E2E
// benchmarks and examples run client and server on one host, like the
// paper's mhealth setup).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "net/wire.hpp"

namespace tc::net {

struct TcpServerOptions {
  /// Bind all interfaces instead of loopback — the replication topology
  /// needs it when peers dial back across machines (a daemon advertising a
  /// LAN address, a primary accepting remote followers).
  bool bind_any = false;
  /// Reject request frames whose body exceeds this many bytes with a clean
  /// error response (the header's body_len is attacker-controlled; it must
  /// never drive an allocation).
  size_t max_frame_body = kDefaultMaxFrameBody;
  /// Server pool width, shared by all connections. The pool includes the
  /// thread waiting in epoll_wait as leader, so at most this many requests
  /// run at once and the leader is the one that is not running a request.
  /// 0 = one thread per hardware core, floored at 2 so same-connection
  /// concurrency exists even on a single-core host.
  size_t dispatch_threads = 0;
  /// Per-connection cap on requests being processed or awaiting their
  /// response's send; the connection is not read again until one finishes
  /// (TCP backpressure), bounding server memory against a client that
  /// pipelines faster than handlers drain.
  size_t max_inflight_per_conn = 32;
};

namespace detail {

/// Per-connection outbound frame queue. Any thread appends whole frames
/// under the lock; one flusher at a time sends everything queued outside
/// it, so concurrent responses (or requests) share one sendmsg.
class Outbox {
 public:
  struct Flushed {
    Status status;        // first send error; the outbox stays failed
    size_t finished = 0;  // counted frames this call sent or dropped
  };

  /// Queue `frame`, tagged with `counted` units of caller bookkeeping. If
  /// no flusher is active this thread becomes it and sends until the queue
  /// is empty; `finished` then sums the counts of every frame it sent
  /// (frames queued behind an active flusher are reported by that flusher).
  /// A failed outbox drops the frame and reports its count straight back.
  Flushed Send(int fd, Bytes frame, size_t counted = 0) EXCLUDES(mu_);

 private:
  Mutex mu_;
  std::vector<Bytes> queue_ GUARDED_BY(mu_);
  size_t queued_counted_ GUARDED_BY(mu_) = 0;
  bool flushing_ GUARDED_BY(mu_) = false;
  Status failed_ GUARDED_BY(mu_);
};

/// Buffered frame reader for one socket: a non-blocking recv pass pulls
/// whatever the kernel holds, then complete frames are cut out of the
/// buffer with no further syscalls. Used by one thread at a time (the
/// connection's read turn on the server, the read role on the client).
class FrameReader {
 public:
  /// One non-blocking recv into the buffer. False once the peer closed or
  /// the socket failed (`status` says which); data received before that
  /// stays readable.
  bool Fill(int fd, Status& status);
  /// True when the buffer has no free room left — after a Fill, the socket
  /// may hold more.
  bool full() const { return end_ == buf_.size(); }
  /// The next frame's header once it is buffered (nullopt before that),
  /// bounded by `max_body` like DecodeFrameHeader. A decoded header makes
  /// its frame the one Complete/Body/Consume act on.
  std::optional<Result<FrameHeader>> PeekHeader(size_t max_body);
  /// True when the peeked frame is fully buffered; otherwise makes room so
  /// later Fills can complete it.
  bool Complete();
  /// The peeked frame's body (valid until Consume).
  BytesView Body() const;
  /// Drop the peeked frame from the buffer; returns its wire size.
  size_t Consume();

 private:
  Bytes buf_;
  size_t begin_ = 0;  // first unconsumed byte
  size_t end_ = 0;    // one past the last received byte
  size_t frame_len_ = 0;  // peeked frame: header + body bytes
  size_t body_len_ = 0;
};

}  // namespace detail

/// TCP server: a listener and its connections in one epoll set, served by
/// a leader/follower pool of `dispatch_threads` threads. Start() binds and
/// spawns the pool; Stop() closes the listener and joins it.
class TcpServer {
 public:
  TcpServer(std::shared_ptr<RequestHandler> handler, uint16_t port,
            TcpServerOptions options);
  /// Compatibility constructor (pre-options call sites).
  TcpServer(std::shared_ptr<RequestHandler> handler, uint16_t port,
            bool bind_any = false);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind, listen, spawn the pool. Port 0 picks a free port.
  Status Start();
  void Stop();

  uint16_t port() const { return port_; }

 private:
  /// Shared per-connection state. The fd closes when the last reference
  /// (the connection registry, a read turn or a queued request) drops,
  /// never while a handler could still write to it.
  struct Conn;

  /// One unit of pool work: a request to handle, a connection's mutation
  /// drain, or a connection's read turn resumed after the inflight cap.
  struct Work {
    enum class Kind : uint8_t { kRequest, kDrain, kRead };
    Kind kind = Kind::kRequest;
    std::shared_ptr<Conn> conn;
    FrameHeader header;
    Bytes body;
    uint32_t reader = 0;  // ThreadSerial() of the thread that read it
  };

  void PoolLoop() EXCLUDES(mu_);
  /// Wait in epoll_wait as leader, promote a follower, serve the event.
  void Lead() EXCLUDES(mu_);
  void AcceptAll();
  void ArmListener();
  /// One read turn: read, re-arm, run the first request, queue the rest.
  void Serve(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void Run(Work& work);
  void Enqueue(std::vector<Work>& work, size_t first) EXCLUDES(mu_);
  void HandleRequest(const std::shared_ptr<Conn>& conn,
                     const FrameHeader& header, const Bytes& body,
                     uint32_t reader);
  void Respond(const std::shared_ptr<Conn>& conn, uint64_t request_id,
               const Result<Bytes>& result, size_t counted);
  void DrainMutations(const std::shared_ptr<Conn>& conn);
  void FinishRequests(const std::shared_ptr<Conn>& conn, size_t n);

  std::shared_ptr<RequestHandler> handler_;
  uint16_t port_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;     // eventfd: kicks the leader (Stop, queued work)
  int backoff_fd_ = -1;  // timerfd: re-arms the listener after accept errors
  std::atomic<bool> running_{false};
  std::atomic<bool> accept_paused_{false};
  std::vector<std::thread> pool_;

  Mutex mu_;  // pool state
  CondVar followers_cv_;
  std::deque<Work> ready_ GUARDED_BY(mu_);
  bool leader_ GUARDED_BY(mu_) = false;
  bool kicked_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  size_t idle_ GUARDED_BY(mu_) = 0;

  Mutex conns_mu_;
  // Live connections, keyed by the pointer their epoll events carry.
  std::unordered_map<Conn*, std::shared_ptr<Conn>> conns_
      GUARDED_BY(conns_mu_);
};

/// Client connection with request-id multiplexing: any number of calls may
/// be in flight concurrently (from any threads); responses complete them in
/// whatever order the server answers. Completion callbacks run on whichever
/// thread reads the response frame — a caller blocked in Call, or the
/// reader thread.
class TcpClient final : public Transport {
 public:
  /// `connect_timeout_ms > 0` bounds the dial (non-blocking connect +
  /// poll); 0 keeps the OS default (blocking). `max_frame_body` bounds
  /// response frames — an oversized one fails the connection cleanly
  /// instead of driving an allocation.
  TC_BLOCKING static Result<std::unique_ptr<TcpClient>> Connect(
      const std::string& host, uint16_t port, int64_t connect_timeout_ms = 0,
      size_t max_frame_body = kDefaultMaxFrameBody);
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Bound every in-flight call: if the oldest pending request has seen no
  /// response within `timeout_ms`, the connection is failed and every
  /// pending call returns Unavailable. A peer that accepts the connection
  /// and then wedges must fail the calls, not hang the callers — heartbeat
  /// fan-out and takeover probes depend on this. An idle connection (no
  /// calls pending) never times out.
  Status SetOpTimeout(int64_t timeout_ms);

  PendingCall AsyncCall(MessageType type, BytesView body,
                        CallCallback on_done = nullptr) override;

  /// Blocking call that reads its own response: when no other thread is
  /// reading the connection, the caller takes the read role itself, so a
  /// lone caller's round trip never crosses to another thread.
  TC_BLOCKING Result<Bytes> Call(MessageType type, BytesView body) override;

 private:
  TcpClient(int fd, size_t max_frame_body);

  /// A blocking caller's response slot (on its stack); fields guarded by
  /// mu_.
  struct Waiter;

  struct Pending {
    std::optional<CallCompleter> completer;  // AsyncCall
    Waiter* waiter = nullptr;                // Call
    int64_t deadline_ms = 0;  // steady-clock ms; 0 = no op timeout
  };

  void ReaderLoop() EXCLUDES(mu_);
  /// Read as the role holder until `self`'s call is done (a caller) or, for
  /// the reader thread (`self` null), until no AsyncCall is pending; then
  /// hand the role on.
  void ReadAsHolder(const Waiter* self) EXCLUDES(mu_);
  /// Match one response frame to its call and complete it. False on a
  /// protocol violation (the connection is failed).
  bool Deliver(const Waiter* self, uint64_t request_id, BytesView body)
      EXCLUDES(mu_);
  void ReleaseRole() REQUIRES(mu_);
  int64_t NewDeadline() const;
  void Send(MessageType type, uint64_t request_id, BytesView body);
  /// Fail every pending call (and all future ones) with `status`.
  void FailConnection(const Status& status) EXCLUDES(mu_);

  const size_t max_frame_body_;
  int fd_;
  int wake_fds_[2] = {-1, -1};  // self-pipe: SetOpTimeout nudges the holder

  Mutex mu_;
  CondVar reader_cv_;  // the reader thread parks here between reads
  std::unordered_map<uint64_t, Pending> pending_ GUARDED_BY(mu_);
  size_t uncovered_ GUARDED_BY(mu_) = 0;  // pending AsyncCalls
  std::vector<Waiter*> waiting_ GUARDED_BY(mu_);  // callers awaiting the role
  bool reading_ GUARDED_BY(mu_) = false;  // someone holds the read role
  uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
  bool closed_ GUARDED_BY(mu_) = false;
  Status conn_status_ GUARDED_BY(mu_);

  detail::FrameReader in_;  // touched only by the read-role holder
  detail::Outbox out_;
  std::atomic<int64_t> op_timeout_ms_{0};
  std::thread reader_;
};

/// Read exactly n bytes / write all bytes on a socket fd (helpers shared by
/// server and client; exposed for tests). Both can park the caller in the
/// kernel until the peer drains or supplies bytes.
TC_BLOCKING Status ReadExact(int fd, MutableBytesView out);
TC_BLOCKING Status WriteAll(int fd, BytesView data);

}  // namespace tc::net
