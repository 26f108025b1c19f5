#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace tc::net {

namespace {

// Transport metrics, one family per direction with a side label. Function-
// local statics: registered on first use, then lock-free to record.
struct WireVolume {
  metrics::Counter& rx_bytes;
  metrics::Counter& rx_frames;
  metrics::Counter& tx_bytes;
  metrics::Counter& tx_frames;
  // Requests (server) or blocking callers' responses (client) completed by
  // a thread other than the one that read them / waits for them.
  metrics::Counter& handoffs;
};

WireVolume& ServerVolume() {
  static WireVolume v{
      metrics::GetCounter("tc_net_rx_bytes_total", "side=\"server\""),
      metrics::GetCounter("tc_net_rx_frames_total", "side=\"server\""),
      metrics::GetCounter("tc_net_tx_bytes_total", "side=\"server\""),
      metrics::GetCounter("tc_net_tx_frames_total", "side=\"server\""),
      metrics::GetCounter("tc_net_handoffs_total", "side=\"server\"")};
  return v;
}

WireVolume& ClientVolume() {
  static WireVolume v{
      metrics::GetCounter("tc_net_rx_bytes_total", "side=\"client\""),
      metrics::GetCounter("tc_net_rx_frames_total", "side=\"client\""),
      metrics::GetCounter("tc_net_tx_bytes_total", "side=\"client\""),
      metrics::GetCounter("tc_net_tx_frames_total", "side=\"client\""),
      metrics::GetCounter("tc_net_handoffs_total", "side=\"client\"")};
  return v;
}

metrics::Gauge& ServerConnsGauge() {
  static metrics::Gauge& g = metrics::GetGauge("tc_net_server_conns");
  return g;
}

metrics::Gauge& ServerInflightGauge() {
  static metrics::Gauge& g = metrics::GetGauge("tc_net_server_inflight");
  return g;
}

metrics::Counter& AcceptErrors() {
  static metrics::Counter& c =
      metrics::GetCounter("tc_net_accept_errors_total");
  return c;
}

/// Demux depth: client calls registered and awaiting responses.
metrics::Gauge& ClientPendingGauge() {
  static metrics::Gauge& g = metrics::GetGauge("tc_net_client_pending");
  return g;
}

metrics::Counter& ClientOpTimeouts() {
  static metrics::Counter& c =
      metrics::GetCounter("tc_net_client_op_timeouts_total");
  return c;
}

/// Receive buffer granularity: one recv pass reads at most this much
/// beyond a frame that is larger.
constexpr size_t kReadChunk = 64u << 10;

/// How long the listener stays parked after a resource-exhaustion accept
/// error when no connection closes to free a descriptor first.
constexpr int64_t kAcceptBackoffMs = 100;

/// Connection serials seed the per-request trace ids (serial << 32 |
/// request_id) so ids from different connections never collide.
uint64_t NextConnSerial() {
  static std::atomic<uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Small per-thread id: the server tags each request with its reader's so
/// the thread that runs it can tell whether it crossed threads.
uint32_t ThreadSerial() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t serial =
      next.fetch_add(1, std::memory_order_relaxed) + 1;
  return serial;
}

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CloseFds(std::initializer_list<int*> fds) {
  for (int* fd : fds) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Send whole frames with as few syscalls as the socket allows: one
/// sendmsg gathers up to kMaxIov frames, partial writes resume mid-frame.
Status WriteFrames(int fd, const std::vector<Bytes>& frames) {
  constexpr size_t kMaxIov = 64;
  size_t frame = 0;
  size_t offset = 0;  // bytes of frames[frame] already sent
  while (frame < frames.size()) {
    iovec iov[kMaxIov];
    size_t n = 0;
    for (size_t f = frame; f < frames.size() && n < kMaxIov; ++f, ++n) {
      size_t skip = f == frame ? offset : 0;
      iov[n].iov_base = const_cast<uint8_t*>(frames[f].data()) + skip;
      iov[n].iov_len = frames[f].size() - skip;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    // MSG_NOSIGNAL: writing into a peer-closed socket must surface as
    // EPIPE, not kill the process with SIGPIPE.
    ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("write failed: ") + std::strerror(errno));
    }
    size_t left = static_cast<size_t>(sent);
    while (frame < frames.size() && left >= frames[frame].size() - offset) {
      left -= frames[frame].size() - offset;
      ++frame;
      offset = 0;
    }
    offset += left;
  }
  return Status::Ok();
}

}  // namespace

Status ReadExact(int fd, MutableBytesView out) {
  size_t done = 0;
  while (done < out.size()) {
    ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n == 0) return Unavailable("connection closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("read failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteAll(int fd, BytesView data) {
  size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: writing into a peer-closed socket must surface as EPIPE,
    // not kill the process with SIGPIPE — replication shippers write to
    // follower daemons that can die at any moment.
    ssize_t n = ::send(fd, data.data() + done, data.size() - done,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Unavailable(std::string("write failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// ---------------------------------------------------------- shared framing

namespace detail {

Outbox::Flushed Outbox::Send(int fd, Bytes frame, size_t counted) {
  {
    MutexLock lock(mu_);
    if (!failed_.ok()) return {failed_, counted};
    queue_.push_back(std::move(frame));
    queued_counted_ += counted;
    if (flushing_) return {};  // the active flusher sends it
    flushing_ = true;
  }
  Flushed out;
  std::vector<Bytes> batch;
  for (;;) {
    size_t batch_counted = 0;
    {
      MutexLock lock(mu_);
      if (!out.status.ok()) {
        // A failed send poisons the stream: drop what is queued behind it.
        failed_ = out.status;
        out.finished += queued_counted_;
        queued_counted_ = 0;
        queue_.clear();
      }
      if (queue_.empty()) {
        flushing_ = false;
        return out;
      }
      batch.clear();
      batch.swap(queue_);
      batch_counted = std::exchange(queued_counted_, 0);
    }
    // Outside the lock: writers keep appending while this thread sends.
    out.status = WriteFrames(fd, batch);
    out.finished += batch_counted;
  }
}

bool FrameReader::Fill(int fd, Status& status) {
  if (buf_.empty()) buf_.resize(kReadChunk);
  if (end_ == buf_.size()) {
    if (begin_ > 0) {
      std::copy(buf_.begin() + static_cast<ptrdiff_t>(begin_),
                buf_.begin() + static_cast<ptrdiff_t>(end_), buf_.begin());
      end_ -= begin_;
      begin_ = 0;
    } else {
      buf_.resize(buf_.size() * 2);
    }
  }
  for (;;) {
    ssize_t n = ::recv(fd, buf_.data() + end_, buf_.size() - end_,
                       MSG_DONTWAIT);
    if (n > 0) {
      end_ += static_cast<size_t>(n);
      return true;
    }
    if (n == 0) {
      status = Unavailable("connection closed");
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    status = Unavailable(std::string("read failed: ") + std::strerror(errno));
    return false;
  }
}

std::optional<Result<FrameHeader>> FrameReader::PeekHeader(size_t max_body) {
  if (end_ - begin_ < kFrameHeaderBytes) return std::nullopt;
  auto header = DecodeFrameHeader(
      BytesView(buf_.data() + begin_, kFrameHeaderBytes), max_body);
  if (header.ok()) {
    body_len_ = header->body_len;
    frame_len_ = kFrameHeaderBytes + body_len_;
  }
  return header;
}

bool FrameReader::Complete() {
  if (end_ - begin_ >= frame_len_) return true;
  if (buf_.size() - begin_ < frame_len_) {
    std::copy(buf_.begin() + static_cast<ptrdiff_t>(begin_),
              buf_.begin() + static_cast<ptrdiff_t>(end_), buf_.begin());
    end_ -= begin_;
    begin_ = 0;
    if (buf_.size() < frame_len_) buf_.resize(frame_len_);
  }
  return false;
}

BytesView FrameReader::Body() const {
  return BytesView(buf_.data() + begin_ + (frame_len_ - body_len_),
                   body_len_);
}

size_t FrameReader::Consume() {
  size_t consumed = frame_len_;
  begin_ += frame_len_;
  frame_len_ = body_len_ = 0;
  if (begin_ == end_) {
    begin_ = end_ = 0;
    // Give back the room a large frame needed.
    if (buf_.size() > kReadChunk) {
      buf_.resize(kReadChunk);
      buf_.shrink_to_fit();
    }
  }
  return consumed;
}

}  // namespace detail

// ---------------------------------------------------------------- server

struct TcpServer::Conn : std::enable_shared_from_this<Conn> {
  explicit Conn(int fd_in) : fd(fd_in), serial(NextConnSerial()) {}
  ~Conn() { ::close(fd); }

  const int fd;
  const uint64_t serial;  // trace-id seed for requests on this connection

  // Read-turn state. EPOLLONESHOT and `paused` already give one thread at
  // a time the read turn; the uncontended lock makes the handoff visible
  // to the thread-safety tools.
  Mutex read_mu;
  detail::FrameReader reader GUARDED_BY(read_mu);
  bool eof GUARDED_BY(read_mu) = false;  // close once buffered frames ran

  detail::Outbox outbox;

  // Mutation FIFO: same-connection mutations run one at a time, in arrival
  // order, on a single chained drain.
  Mutex q_mu;
  std::deque<Work> mutations GUARDED_BY(q_mu);
  bool mutation_task_running GUARDED_BY(q_mu) = false;

  // Requests running or awaiting their response's send. At the cap the
  // read turn parks (`paused`) instead of re-arming; FinishRequests
  // resumes it.
  Mutex inflight_mu;
  size_t inflight GUARDED_BY(inflight_mu) = 0;
  bool paused GUARDED_BY(inflight_mu) = false;
};

TcpServer::TcpServer(std::shared_ptr<RequestHandler> handler, uint16_t port,
                     TcpServerOptions options)
    : handler_(std::move(handler)), port_(port), options_(options) {}

TcpServer::TcpServer(std::shared_ptr<RequestHandler> handler, uint16_t port,
                     bool bind_any)
    : TcpServer(std::move(handler), port,
                TcpServerOptions{.bind_any = bind_any}) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Unavailable("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(options_.bind_any ? INADDR_ANY
                                                 : INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  // Every failure below closes what it opened: Stop() never runs for a
  // server that failed to start, so a leaked listener would outlive every
  // retry.
  auto fail = [this](std::string what) {
    CloseFds({&listen_fd_, &epoll_fd_, &wake_fd_, &backoff_fd_});
    return Unavailable(std::move(what));
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail(std::string("bind failed: ") + std::strerror(errno));
  }
  if (port_ == 0) {
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen failed");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  backoff_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || backoff_fd_ < 0) {
    return fail(std::string("epoll setup failed: ") + std::strerror(errno));
  }
  // The wake eventfd is level-triggered: a kick stays visible until the
  // leader that takes it drains it. The backoff timer is edge-triggered:
  // each expiry is one event.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.events = EPOLLIN | EPOLLET;
  ev.data.ptr = &backoff_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, backoff_fd_, &ev);
  // The listener is armed one-shot, like connections: one thread at a time
  // accepts, and a persistent accept error can leave it parked.
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.ptr = &listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail(std::string("epoll_ctl failed: ") + std::strerror(errno));
  }

  size_t threads = options_.dispatch_threads;
  if (threads == 0) {
    threads = std::max<size_t>(2, std::thread::hardware_concurrency());
  }
  running_ = true;
  for (size_t i = 0; i < threads; ++i) {
    pool_.emplace_back([this] { PoolLoop(); });
  }
  return Status::Ok();
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  followers_cv_.NotifyAll();
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  // Handlers may be blocked sending to peers that stopped reading; shut
  // every socket down so those sends fail and the pool can drain.
  {
    MutexLock lock(conns_mu_);
    for (auto& [ptr, conn] : conns_) ::shutdown(conn->fd, SHUT_RDWR);
  }
  // Pool threads finish queued work (completions must fire), then exit.
  for (auto& t : pool_) {
    if (t.joinable()) t.join();
  }
  pool_.clear();
  {
    // Connections still open here were never closed by a read turn.
    MutexLock lock(conns_mu_);
    ServerConnsGauge().Dec(static_cast<int64_t>(conns_.size()));
    conns_.clear();
  }
  CloseFds({&listen_fd_, &epoll_fd_, &wake_fd_, &backoff_fd_});
}

void TcpServer::PoolLoop() {
  for (;;) {
    Work work;
    {
      MutexLock lock(mu_);
      for (;;) {
        if (!ready_.empty()) {
          work = std::move(ready_.front());
          ready_.pop_front();
          break;
        }
        if (stopping_) return;
        if (!leader_) {
          leader_ = true;
          break;
        }
        ++idle_;
        followers_cv_.Wait(mu_);
        --idle_;
      }
    }
    if (work.conn) {
      Run(work);
    } else {
      Lead();
    }
  }
}

void TcpServer::Lead() {
  epoll_event ev{};
  int n = ::epoll_wait(epoll_fd_, &ev, 1, -1);
  bool kicked = n == 1 && ev.data.ptr == &wake_fd_;
  if (kicked) {
    // Drain before clearing kicked_, so a kick that lands after the drain
    // is never lost behind a stale flag.
    uint64_t count = 0;
    [[maybe_unused]] ssize_t r = ::read(wake_fd_, &count, sizeof(count));
  }
  {
    MutexLock lock(mu_);
    leader_ = false;
    if (kicked) kicked_ = false;
  }
  // Promote a follower before serving, so the next event does not wait
  // for this one's handler.
  followers_cv_.NotifyOne();
  if (n != 1 || kicked) return;  // EINTR, or back to the loop for work
  if (ev.data.ptr == &backoff_fd_) {
    uint64_t expirations = 0;
    [[maybe_unused]] ssize_t r =
        ::read(backoff_fd_, &expirations, sizeof(expirations));
    if (accept_paused_.exchange(false)) ArmListener();
  } else if (ev.data.ptr == &listen_fd_) {
    AcceptAll();
  } else {
    std::shared_ptr<Conn> conn = static_cast<Conn*>(ev.data.ptr)
                                     ->shared_from_this();
    Serve(conn);
  }
}

void TcpServer::ArmListener() {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.ptr = &listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
}

void TcpServer::AcceptAll() {
  while (running_) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // EMFILE, ENFILE, ENOBUFS, ENOMEM: the connection stays queued and
      // the listener stays readable, so retrying now would spin. Park the
      // listener until a connection closes or the backoff timer fires.
      AcceptErrors().Inc();
      accept_paused_ = true;
      itimerspec backoff{};
      backoff.it_value.tv_sec = kAcceptBackoffMs / 1000;
      backoff.it_value.tv_nsec = (kAcceptBackoffMs % 1000) * 1'000'000;
      ::timerfd_settime(backoff_fd_, 0, &backoff, nullptr);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(fd);
    ServerConnsGauge().Inc();
    {
      MutexLock lock(conns_mu_);
      conns_.emplace(conn.get(), conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.ptr = conn.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
  ArmListener();
}

void TcpServer::Serve(const std::shared_ptr<Conn>& conn) {
  std::vector<Work> work;
  std::optional<FrameHeader> oversized;
  bool paused = false;
  bool eof = false;
  {
    MutexLock lock(conn->read_mu);
    // Cut every complete frame out of the buffer, up to the inflight cap.
    // Frames left buffered by a turn that hit the cap go first; the socket
    // is read when none is left, again only while a recv fills the buffer.
    bool filled = conn->eof;
    for (;;) {
      auto header = conn->reader.PeekHeader(UINT32_MAX);
      if (header && (*header)->body_len > options_.max_frame_body) {
        oversized = **header;
        break;
      }
      if (!header || !conn->reader.Complete()) {
        if (filled && (conn->eof || !conn->reader.full())) break;
        filled = true;
        Status status;
        if (!running_ || !conn->reader.Fill(conn->fd, status)) {
          conn->eof = true;
        }
        continue;
      }
      {
        MutexLock inflight_lock(conn->inflight_mu);
        if (conn->inflight >= options_.max_inflight_per_conn) {
          conn->paused = paused = true;
          break;
        }
        ++conn->inflight;
      }
      ServerInflightGauge().Inc();
      BytesView body = conn->reader.Body();
      Work item{Work::Kind::kRequest, conn, **header,
                Bytes(body.begin(), body.end()), ThreadSerial()};
      size_t frame_bytes = conn->reader.Consume();
      if constexpr (metrics::kEnabled) {
        ServerVolume().rx_frames.Inc();
        ServerVolume().rx_bytes.Inc(frame_bytes);
      }
      if (!IsMutation(item.header.type)) {
        work.push_back(std::move(item));
        continue;
      }
      MutexLock q_lock(conn->q_mu);
      conn->mutations.push_back(std::move(item));
      if (!conn->mutation_task_running) {
        conn->mutation_task_running = true;
        work.push_back(Work{Work::Kind::kDrain, conn, {}, {}, 0});
      }
    }
    eof = conn->eof;
  }

  // Hand the read turn on before running anything: a paused connection is
  // resumed by FinishRequests, a live one by its next epoll event.
  if (oversized) {
    // Bound enforcement is split so the offending request id is known: an
    // oversized claim gets a clean error response (no allocation), then
    // the connection drops — framing past an unread body cannot be
    // trusted.
    Respond(conn, oversized->request_id,
            InvalidArgument("frame body of " +
                            std::to_string(oversized->body_len) +
                            " bytes exceeds this server's max of " +
                            std::to_string(options_.max_frame_body)),
            0);
    CloseConn(conn);
  } else if (paused) {
    // FinishRequests queues the next read turn.
  } else if (eof) {
    CloseConn(conn);
  } else {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.ptr = conn.get();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  if (work.empty()) return;
  Enqueue(work, 1);
  Run(work.front());
}

void TcpServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  // Stop reading; requests in flight may still write responses. The fd
  // closes when the last Conn reference drops — never while a handler
  // could write to a reused descriptor.
  ::shutdown(conn->fd, SHUT_RD);
  ServerConnsGauge().Dec();
  {
    MutexLock lock(conns_mu_);
    conns_.erase(conn.get());
  }
  // A freed descriptor is the cue to retry an accept that failed for lack
  // of one.
  if (accept_paused_.exchange(false)) ArmListener();
}

void TcpServer::Enqueue(std::vector<Work>& work, size_t first) {
  if (first >= work.size()) return;
  size_t wake = 0;
  bool kick = false;
  {
    MutexLock lock(mu_);
    for (size_t i = first; i < work.size(); ++i) {
      ready_.push_back(std::move(work[i]));
    }
    wake = std::min(idle_, work.size() - first);
    // Not enough idle followers: the leader leaves epoll_wait to help.
    if (wake < work.size() - first && leader_ && !kicked_) {
      kicked_ = kick = true;
    }
  }
  for (size_t i = 0; i < wake; ++i) followers_cv_.NotifyOne();
  if (kick) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void TcpServer::Run(Work& work) {
  switch (work.kind) {
    case Work::Kind::kRequest:
      HandleRequest(work.conn, work.header, work.body, work.reader);
      return;
    case Work::Kind::kDrain:
      DrainMutations(work.conn);
      return;
    case Work::Kind::kRead:
      Serve(work.conn);
      return;
  }
}

void TcpServer::HandleRequest(const std::shared_ptr<Conn>& conn,
                              const FrameHeader& header, const Bytes& body,
                              uint32_t reader) {
  // Stamp the trace context on the handling thread: adopt the wire's trace
  // id when the caller sent one (a routed/shipped hop inside a larger
  // request), else derive the origin id (connection serial | request id).
  // TraceSpans opened inside the handler inherit it and parent under the
  // caller's span.
  if constexpr (metrics::kEnabled) {
    if (reader != ThreadSerial()) ServerVolume().handoffs.Inc();
    uint64_t trace_id =
        header.trace_id != 0
            ? header.trace_id
            : (conn->serial << 32) | (header.request_id & 0xffffffff);
    metrics::SetCurrentTraceContext({trace_id, header.parent_span_id});
  }
  Respond(conn, header.request_id, handler_->Handle(header.type, body), 1);
  if constexpr (metrics::kEnabled) metrics::SetCurrentTraceContext({});
}

void TcpServer::Respond(const std::shared_ptr<Conn>& conn,
                        uint64_t request_id, const Result<Bytes>& result,
                        size_t counted) {
  Bytes body = result.ok() ? EncodeResponseBody(Status::Ok(), *result)
                           : EncodeResponseBody(result.status(), {});
  Bytes frame = EncodeFrame(MessageType::kResponse, request_id, body);
  if constexpr (metrics::kEnabled) {
    ServerVolume().tx_frames.Inc();
    ServerVolume().tx_bytes.Inc(frame.size());
  }
  detail::Outbox::Flushed sent =
      conn->outbox.Send(conn->fd, std::move(frame), counted);
  // Peer is gone or wedged shut: wake the read turn so it closes.
  if (!sent.status.ok()) ::shutdown(conn->fd, SHUT_RDWR);
  FinishRequests(conn, sent.finished);
}

void TcpServer::DrainMutations(const std::shared_ptr<Conn>& conn) {
  // One drain runs per connection at a time, so mutations apply in exactly
  // the order the client sent them even though they share the pool with
  // everything else.
  for (;;) {
    Work item;
    {
      MutexLock lock(conn->q_mu);
      if (conn->mutations.empty()) {
        conn->mutation_task_running = false;
        return;
      }
      item = std::move(conn->mutations.front());
      conn->mutations.pop_front();
    }
    HandleRequest(conn, item.header, item.body, item.reader);
  }
}

void TcpServer::FinishRequests(const std::shared_ptr<Conn>& conn, size_t n) {
  if (n == 0) return;
  ServerInflightGauge().Dec(static_cast<int64_t>(n));
  bool resume = false;
  {
    MutexLock lock(conn->inflight_mu);
    conn->inflight -= n;
    if (conn->paused && conn->inflight < options_.max_inflight_per_conn) {
      conn->paused = false;
      resume = true;
    }
  }
  if (resume) {
    std::vector<Work> turn;
    turn.push_back(Work{Work::Kind::kRead, conn, {}, {}, 0});
    Enqueue(turn, 0);
  }
}

// ---------------------------------------------------------------- client

Result<std::unique_ptr<TcpClient>> TcpClient::Connect(
    const std::string& host, uint16_t port, int64_t connect_timeout_ms,
    size_t max_frame_body) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable("socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad host address: " + host);
  }
  if (connect_timeout_ms > 0) {
    // Bounded dial: a blackholed peer must fail the Connect, not park the
    // caller in the kernel's minutes-long SYN retry schedule.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pending{fd, POLLOUT, 0};
      rc = ::poll(&pending, 1, static_cast<int>(connect_timeout_ms));
      if (rc <= 0) {
        ::close(fd);
        return Unavailable(rc == 0 ? "connect timed out"
                                   : std::string("connect poll failed: ") +
                                         std::strerror(errno));
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        ::close(fd);
        return Unavailable(std::string("connect failed: ") +
                           std::strerror(err));
      }
    } else if (rc != 0) {
      ::close(fd);
      return Unavailable(std::string("connect failed: ") +
                         std::strerror(errno));
    }
    ::fcntl(fd, F_SETFL, flags);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    ::close(fd);
    return Unavailable(std::string("connect failed: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<TcpClient>(new TcpClient(fd, max_frame_body));
}

struct TcpClient::Waiter {
  CondVar cv;
  bool done = false;
  Result<Bytes> result{Bytes{}};
};

TcpClient::TcpClient(int fd, size_t max_frame_body)
    : max_frame_body_(max_frame_body), fd_(fd) {
  // Self-pipe: SetOpTimeout nudges the read-role holder out of an
  // open-ended poll when every pending deadline changes. On the unlikely
  // pipe() failure the client still works; a changed timeout is then
  // noticed at the holder's next wake.
  if (::pipe(wake_fds_) == 0) {
    SetNonBlocking(wake_fds_[0]);
    SetNonBlocking(wake_fds_[1]);
  } else {
    wake_fds_[0] = wake_fds_[1] = -1;
  }
  reader_ = std::thread([this] { ReaderLoop(); });
}

TcpClient::~TcpClient() {
  FailConnection(Unavailable("client connection destroyed"));
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

Status TcpClient::SetOpTimeout(int64_t timeout_ms) {
  // Send side: a wedged peer must fail a write, not park it forever. The
  // receive side is enforced by the read-role holder's poll deadline over
  // the oldest pending call (reads never block mid-frame: the holder only
  // recv()s what poll reported).
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Unavailable("setting socket timeouts failed");
  }
  op_timeout_ms_.store(timeout_ms);
  {
    // "Bound every in-flight call" includes calls issued before this was
    // configured: restart their clocks from now.
    MutexLock lock(mu_);
    int64_t deadline = timeout_ms > 0 ? SteadyNowMs() + timeout_ms : 0;
    for (auto& [id, p] : pending_) p.deadline_ms = deadline;
  }
  // Nudge the read-role holder out of a poll sized to the old deadlines.
  if (wake_fds_[1] >= 0) {
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
  return Status::Ok();
}

int64_t TcpClient::NewDeadline() const {
  int64_t t = op_timeout_ms_.load();
  return t > 0 ? SteadyNowMs() + t : 0;
}

void TcpClient::FailConnection(const Status& status) {
  std::vector<CallCompleter> victims;
  Status final_status;
  size_t failed = 0;
  {
    MutexLock lock(mu_);
    if (!closed_) {
      closed_ = true;
      conn_status_ = status.ok() ? Unavailable("connection closed") : status;
    }
    final_status = conn_status_;
    failed = pending_.size();
    for (auto& [id, p] : pending_) {
      if (p.waiter != nullptr) {
        p.waiter->result = final_status;
        p.waiter->done = true;
        p.waiter->cv.NotifyOne();
      } else {
        victims.push_back(std::move(*p.completer));
      }
    }
    pending_.clear();
    uncovered_ = 0;
    reader_cv_.NotifyAll();
  }
  if (failed > 0) ClientPendingGauge().Dec(static_cast<int64_t>(failed));
  // Wakes the read-role holder out of poll (the socket reports hangup).
  ::shutdown(fd_, SHUT_RDWR);
  // Error fan-out: every call still in flight fails with the connection's
  // terminal status. Completed outside the lock — callbacks may Wait().
  for (auto& v : victims) v.Complete(final_status);
}

void TcpClient::Send(MessageType type, uint64_t request_id, BytesView body) {
  // Stamp the caller's live trace context on the frame so the server's
  // spans land in the same trace, under the span issuing this call.
  metrics::TraceContext ctx;
  if constexpr (metrics::kEnabled) ctx = metrics::OutgoingTraceContext();
  Bytes frame = EncodeFrame(type, request_id, body, ctx.trace_id,
                            ctx.parent_span_id);
  if constexpr (metrics::kEnabled) {
    ClientVolume().tx_frames.Inc();
    ClientVolume().tx_bytes.Inc(frame.size());
  }
  detail::Outbox::Flushed sent = out_.Send(fd_, std::move(frame));
  if (!sent.status.ok()) {
    // A mid-frame write failure poisons the stream for every later frame;
    // fail the connection (this call is still pending, so it fans out too).
    FailConnection(sent.status);
  }
}

PendingCall TcpClient::AsyncCall(MessageType type, BytesView body,
                                 CallCallback on_done) {
  CallCompleter completer(std::move(on_done));
  PendingCall handle = completer.pending();

  uint64_t id = 0;
  bool wake = false;
  Status closed_status;
  {
    MutexLock lock(mu_);
    if (closed_) {
      closed_status = conn_status_;
    } else {
      id = next_request_id_++;
      pending_.emplace(id, Pending{completer, nullptr, NewDeadline()});
      ++uncovered_;
      // No one is reading: the reader thread takes the role for this call.
      wake = !reading_;
    }
  }
  if (id == 0) {
    // Dead connection: fail fast, outside the lock (callbacks may Wait()).
    completer.Complete(std::move(closed_status));
    return handle;
  }
  ClientPendingGauge().Inc();
  // Register-then-send: the holder may legally see the response before
  // this thread regains the CPU.
  if (wake) reader_cv_.NotifyOne();
  Send(type, id, body);
  return handle;
}

Result<Bytes> TcpClient::Call(MessageType type, BytesView body) {
  Waiter self;
  uint64_t id = 0;
  {
    MutexLock lock(mu_);
    if (closed_) return conn_status_;
    id = next_request_id_++;
    pending_.emplace(id, Pending{std::nullopt, &self, NewDeadline()});
  }
  ClientPendingGauge().Inc();
  // Send before taking the read role: a holder blocked in send while the
  // server waits for it to drain responses would deadlock the connection.
  Send(type, id, body);
  bool read = false;
  {
    MutexLock lock(mu_);
    while (!self.done && !read) {
      if (!reading_) {
        reading_ = read = true;
      } else {
        waiting_.push_back(&self);
        self.cv.Wait(mu_);
        std::erase(waiting_, &self);
      }
    }
  }
  if (read) ReadAsHolder(&self);
  MutexLock lock(mu_);
  return std::move(self.result);
}

void TcpClient::ReleaseRole() {
  reading_ = false;
  // Prefer a blocked caller (it then reads for every pending call); the
  // reader thread only steps in for calls no caller is reading for.
  for (Waiter* w : waiting_) {
    if (!w->done) {
      w->cv.NotifyOne();
      return;
    }
  }
  if (uncovered_ > 0 && !closed_) reader_cv_.NotifyOne();
}

void TcpClient::ReaderLoop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!closed_ && (reading_ || uncovered_ == 0)) {
        reader_cv_.Wait(mu_);
      }
      if (closed_) return;
      reading_ = true;
    }
    ReadAsHolder(nullptr);
  }
}

void TcpClient::ReadAsHolder(const Waiter* self) {
  for (;;) {
    // Expiry is checked here, at the top of EVERY iteration — not only
    // when poll times out — so a stuck request still fails on schedule
    // while other responses keep the socket readable.
    int timeout = -1;
    bool expired = false;
    size_t stranded = 0;
    {
      MutexLock lock(mu_);
      if (closed_ || (self != nullptr ? self->done : uncovered_ == 0)) {
        ReleaseRole();
        return;
      }
      if (op_timeout_ms_.load() > 0) {
        int64_t min_deadline = INT64_MAX;
        for (const auto& [id, p] : pending_) {
          if (p.deadline_ms > 0) {
            min_deadline = std::min(min_deadline, p.deadline_ms);
          }
        }
        if (min_deadline != INT64_MAX) {
          int64_t remaining = min_deadline - SteadyNowMs();
          if (remaining <= 0) {
            expired = true;
            stranded = pending_.size();
          } else {
            timeout = static_cast<int>(
                std::clamp<int64_t>(remaining, 1, 3'600'000));
          }
        }
      }
    }
    if (expired) {
      ClientOpTimeouts().Inc();
      // One expiry strands every pending call on this connection (the
      // stream cannot be resynced) — journal the storm size, not just the
      // first victim.
      trace::RecordEvent("client_op_timeout", trace::kNoShard,
                         "pending=" + std::to_string(stranded) +
                             " timeout_ms=" +
                             std::to_string(op_timeout_ms_.load()));
      FailConnection(Unavailable("request timed out after " +
                                 std::to_string(op_timeout_ms_.load()) +
                                 " ms"));
      continue;
    }

    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    nfds_t nfds = wake_fds_[0] >= 0 ? 2 : 1;
    int rc = ::poll(fds, nfds, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      FailConnection(
          Unavailable(std::string("poll failed: ") + std::strerror(errno)));
      continue;
    }
    if (rc == 0) continue;  // re-enter the deadline pass above
    if (nfds == 2 && (fds[1].revents & POLLIN)) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (!(fds[0].revents & (POLLIN | POLLHUP | POLLERR))) continue;

    Status read_status;
    bool open = in_.Fill(fd_, read_status);
    // Deliver every complete frame, even when the peer closed right after
    // sending them.
    while (auto header = in_.PeekHeader(max_frame_body_)) {
      if (!header->ok()) {
        FailConnection(header->status());
        break;
      }
      if ((*header)->type != MessageType::kResponse) {
        FailConnection(
            DataLoss("protocol violation: non-response frame from server"));
        break;
      }
      if (!in_.Complete()) break;
      if (!Deliver(self, (*header)->request_id, in_.Body())) break;
      size_t frame_bytes = in_.Consume();
      if constexpr (metrics::kEnabled) {
        ClientVolume().rx_frames.Inc();
        ClientVolume().rx_bytes.Inc(frame_bytes);
      }
    }
    if (!open) FailConnection(read_status);
  }
}

bool TcpClient::Deliver(const Waiter* self, uint64_t request_id,
                        BytesView body) {
  Result<Bytes> result = DecodeResponseBody(body);
  std::optional<CallCompleter> completer;
  bool found = false;
  bool handoff = false;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(request_id);
    if (it != pending_.end()) {
      found = true;
      Pending& p = it->second;
      if (p.waiter != nullptr) {
        p.waiter->result = std::move(result);
        p.waiter->done = true;
        if (p.waiter != self) {
          // Another thread's blocking call: wake it with its response.
          p.waiter->cv.NotifyOne();
          handoff = true;
        }
      } else {
        completer = std::move(p.completer);
        --uncovered_;
      }
      pending_.erase(it);
    }
  }
  if (!found) {
    // A response for an id we never sent (or already answered): the
    // demux invariant is broken, so no later match can be trusted.
    FailConnection(DataLoss(
        "protocol violation: response for unknown request id " +
        std::to_string(request_id)));
    return false;
  }
  ClientPendingGauge().Dec();
  if constexpr (metrics::kEnabled) {
    if (handoff) ClientVolume().handoffs.Inc();
  }
  if (completer) completer->Complete(std::move(result));
  return true;
}

}  // namespace tc::net
