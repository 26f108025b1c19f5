#include "probes.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

namespace tcbench {

using tc::net::MessageType;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t lo = v.size() / 4, hi = v.size() - lo;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {

// RPC time accumulated by calls a client thread issued; completion
// callbacks run on the transport's reader thread, so they hold a reference.
struct ClientCtx {
  std::atomic<int64_t> rpc_ns{0};
  std::atomic<int64_t> outstanding{0};
};

std::shared_ptr<ClientCtx>& ThisClient() {
  thread_local std::shared_ptr<ClientCtx> ctx = std::make_shared<ClientCtx>();
  return ctx;
}

// Set while a TracingHandler runs on this thread: KvStore calls made by the
// handler add their time and counts to it.
thread_local Tracer::HandlerTally* tl_handler = nullptr;

}  // namespace

// ------------------------------------------------------------------ Tracer

void Tracer::RecordRpc(MessageType type, double us, uint64_t tx, uint64_t rx,
                       bool timed) {
  std::lock_guard<std::mutex> lock(mu_);
  types_[type].rpc_us.push_back(us);
  if (timed) {
    timed_net_.rpcs++;
    timed_net_.tx_bytes += tx;
    timed_net_.rx_bytes += rx;
  }
}

void Tracer::RecordHandle(MessageType type, double us,
                          const HandlerTally& tally) {
  std::lock_guard<std::mutex> lock(mu_);
  TypeTrace& t = types_[type];
  t.handle_us.push_back(us);
  t.handle_kv_us += tally.kv_us;
  t.kv_gets += tally.gets;
  t.kv_puts += tally.puts;
  t.kv_put_bytes += tally.put_bytes;
  t.kv_syncs += tally.syncs;
}

void Tracer::RecordKv(double put_us, double get_us, double sync_us,
                      uint64_t puts, uint64_t gets, uint64_t syncs) {
  std::lock_guard<std::mutex> lock(mu_);
  put_us_ += put_us;
  get_us_ += get_us;
  sync_us_ += sync_us;
  puts_ += puts;
  gets_ += gets;
  syncs_ += syncs;
}

std::map<MessageType, TypeTrace> Tracer::types() const {
  std::lock_guard<std::mutex> lock(mu_);
  return types_;
}

TimedNet Tracer::timed_net() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timed_net_;
}

double Tracer::MeanPutUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return puts_ ? put_us_ / static_cast<double>(puts_) : 0;
}

double Tracer::MeanGetUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gets_ ? get_us_ / static_cast<double>(gets_) : 0;
}

double Tracer::MeanSyncUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_ ? sync_us_ / static_cast<double>(syncs_) : 0;
}

// -------------------------------------------------------------- ClientSpan

ClientSpan::ClientSpan(const Tracer* tracer) : tracer_(tracer) {
  if (!tracer_) return;
  rpc_ns_start_ = ThisClient()->rpc_ns.load();
  start_ns_ = NowNs();
}

double ClientSpan::End() {
  if (!tracer_) return 0;
  int64_t elapsed = NowNs() - start_ns_;
  // A synchronous call's waiter can wake before the completion callback
  // has booked the RPC time; wait for the bookkeeping, not the transport.
  auto& ctx = *ThisClient();
  while (ctx.outstanding.load() > 0) std::this_thread::yield();
  int64_t rpc = ctx.rpc_ns.load() - rpc_ns_start_;
  return static_cast<double>(elapsed - rpc) / 1e3;
}

// ------------------------------------------------------- TracingTransport

tc::net::PendingCall TracingTransport::AsyncCall(
    MessageType type, BytesView body, tc::net::CallCallback on_done) {
  static const uint64_t kOkResponseOverhead =
      tc::net::EncodeResponseBody(Status::Ok(), {}).size();
  std::shared_ptr<ClientCtx> ctx = ThisClient();
  ctx->outstanding.fetch_add(1);
  Tracer* tracer = tracer_;
  const bool timed = tracer->timed();
  const uint64_t tx = tc::net::kFrameHeaderBytes + body.size();
  const int64_t start = NowNs();
  return inner_->AsyncCall(
      type, body,
      [tracer, ctx, type, timed, tx, start,
       on_done = std::move(on_done)](const Result<Bytes>& result) {
        int64_t ns = NowNs() - start;
        uint64_t rx = tc::net::kFrameHeaderBytes + kOkResponseOverhead +
                      (result.ok() ? result->size() : 0);
        tracer->RecordRpc(type, static_cast<double>(ns) / 1e3, tx, rx, timed);
        ctx->rpc_ns.fetch_add(ns);
        if (on_done) on_done(result);
        ctx->outstanding.fetch_sub(1);
      });
}

// --------------------------------------------------------- TracingHandler

Result<Bytes> TracingHandler::Handle(MessageType type, BytesView body) {
  Tracer::HandlerTally tally;
  Tracer::HandlerTally* saved = tl_handler;
  tl_handler = &tally;
  int64_t start = NowNs();
  Result<Bytes> result = inner_->Handle(type, body);
  double us = static_cast<double>(NowNs() - start) / 1e3;
  tl_handler = saved;
  tracer_->RecordHandle(type, us, tally);
  return result;
}

// -------------------------------------------------------------- TracingKv

Status TracingKv::Put(const std::string& key, BytesView value) {
  int64_t start = NowNs();
  Status status = inner_->Put(key, value);
  double us = static_cast<double>(NowNs() - start) / 1e3;
  tracer_->RecordKv(us, 0, 0, 1, 0, 0);
  if (tl_handler) {
    tl_handler->kv_us += us;
    tl_handler->puts++;
    tl_handler->put_bytes += key.size() + value.size();
  }
  return status;
}

Result<Bytes> TracingKv::Get(const std::string& key) const {
  int64_t start = NowNs();
  Result<Bytes> result = inner_->Get(key);
  double us = static_cast<double>(NowNs() - start) / 1e3;
  tracer_->RecordKv(0, us, 0, 0, 1, 0);
  if (tl_handler) {
    tl_handler->kv_us += us;
    tl_handler->gets++;
  }
  return result;
}

Status TracingKv::Sync() {
  int64_t start = NowNs();
  Status status = inner_->Sync();
  double us = static_cast<double>(NowNs() - start) / 1e3;
  tracer_->RecordKv(0, 0, us, 0, 0, 1);
  if (tl_handler) {
    tl_handler->kv_us += us;
    tl_handler->syncs++;
  }
  return status;
}

// ---------------------------------------------------- AckUploadsTransport

tc::net::PendingCall AckUploadsTransport::AsyncCall(
    MessageType type, BytesView body, tc::net::CallCallback on_done) {
  if (type != MessageType::kInsertChunk &&
      type != MessageType::kInsertChunkBatch) {
    return inner_->AsyncCall(type, body, std::move(on_done));
  }
  tc::net::CallCompleter completer(std::move(on_done));
  completer.Complete(Bytes{});
  return completer.pending();
}

// ------------------------------------------------------------------ Stack

tc::server::ServerOptions EngineOptions(size_t index_cache_bytes) {
  tc::server::ServerOptions options;
  options.index_cache_bytes = index_cache_bytes;
  options.sync_each_insert = true;
  return options;
}

Result<std::unique_ptr<Stack>> Stack::Start(const std::string& log_path,
                                            size_t index_cache_bytes,
                                            Tracer* tracer) {
  std::unique_ptr<Stack> stack(new Stack(log_path, tracer));
  // Default LogKvOptions: auto-compaction off.
  TC_ASSIGN_OR_RETURN(auto log, tc::store::LogKvStore::Open(log_path));
  std::shared_ptr<tc::store::KvStore> kv = std::move(log);
  if (tracer) kv = std::make_shared<TracingKv>(std::move(kv), tracer);
  stack->engine_ = std::make_shared<tc::server::ServerEngine>(
      std::move(kv), EngineOptions(index_cache_bytes));
  std::shared_ptr<tc::net::RequestHandler> handler = stack->engine_;
  if (tracer) handler = std::make_shared<TracingHandler>(handler, tracer);
  stack->server_ = std::make_unique<tc::net::TcpServer>(
      std::move(handler), 0, tc::net::TcpServerOptions{});
  TC_RETURN_IF_ERROR(stack->server_->Start());
  return stack;
}

Stack::~Stack() { Stop(); }

Result<std::shared_ptr<tc::net::Transport>> Stack::Connect() {
  if (!server_) return tc::FailedPrecondition("stack is stopped");
  TC_ASSIGN_OR_RETURN(
      auto client, tc::net::TcpClient::Connect("127.0.0.1", server_->port()));
  std::shared_ptr<tc::net::Transport> transport = std::move(client);
  if (tracer_) {
    transport = std::make_shared<TracingTransport>(std::move(transport),
                                                   tracer_);
  }
  return transport;
}

uint64_t Stack::LogBytes() const {
  std::error_code ec;
  auto size = std::filesystem::file_size(path_, ec);
  return ec ? 0 : size;
}

void Stack::Stop() {
  if (server_) server_->Stop();
  server_.reset();
  engine_.reset();
}

// ------------------------------------------------------------------ misc

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

namespace {

bool WriteFull(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadFull(int fd, uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t r = ::recv(fd, p, n, 0);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

void NoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<double> LoopbackRttUs(size_t request_bytes, size_t response_bytes,
                             int rounds) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return tc::Internal("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listener);
    return tc::Internal("bind/listen failed");
  }
  std::thread echo([listener, request_bytes, response_bytes, rounds] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    NoDelay(fd);
    std::vector<uint8_t> in(request_bytes), out(response_bytes, 0x5a);
    for (int i = 0; i < rounds; ++i) {
      if (!ReadFull(fd, in.data(), in.size())) break;
      if (!WriteFull(fd, out.data(), out.size())) break;
    }
    ::close(fd);
  });
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  std::vector<double> samples;
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    NoDelay(fd);
    std::vector<uint8_t> out(request_bytes, 0xa5), in(response_bytes);
    for (int i = 0; i < rounds; ++i) {
      int64_t start = NowNs();
      if (!WriteFull(fd, out.data(), out.size()) ||
          !ReadFull(fd, in.data(), in.size())) {
        break;
      }
      samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
  }
  if (fd >= 0) ::close(fd);
  // Wakes the echo thread's accept() if the client never connected.
  ::shutdown(listener, SHUT_RDWR);
  echo.join();
  ::close(listener);
  if (samples.size() != static_cast<size_t>(rounds)) {
    return tc::Internal("loopback ping-pong failed");
  }
  return Median(std::move(samples));
}

}  // namespace tcbench
