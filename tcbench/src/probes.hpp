// Measurement plumbing for tcbench: the stack under test (durable log store,
// ServerEngine, TcpServer, TcpClient connections), the pass-through
// decorators the traced run wraps around the public interfaces
// net::Transport, net::RequestHandler and store::KvStore, and small
// statistics helpers.
//
// The decorators only observe: every call is forwarded unchanged, and the
// response (or error) is handed back untouched. They record into a Tracer
// that the workloads turn into per-layer numbers after the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "server/server_engine.hpp"
#include "store/kv_store.hpp"
#include "store/log_kv.hpp"

namespace tcbench {

using tc::Bytes;
using tc::BytesView;
using tc::Result;
using tc::Status;

int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Mean of the middle half of the sorted sample (all of it below 4 values):
/// robust to a few outliers like a median, but it moves smoothly when the
/// sample mixes two modes, where a median jumps between them.
double InterquartileMean(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// What the decorators saw for one message type.
struct TypeTrace {
  std::vector<double> rpc_us;     // client send -> response callback
  std::vector<double> handle_us;  // RequestHandler::Handle on the server
  double handle_kv_us = 0;        // KvStore time inside those handlers
  uint64_t kv_gets = 0;           // KvStore reads inside those handlers
  uint64_t kv_puts = 0;
  uint64_t kv_put_bytes = 0;      // key + value
  uint64_t kv_syncs = 0;
};

/// Counters of the timed phase only (RPC volume per op).
struct TimedNet {
  uint64_t rpcs = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
};

/// Sink of the traced run. Thread-safe; only the traced run pays for it.
class Tracer {
 public:
  void RecordRpc(tc::net::MessageType type, double us, uint64_t tx,
                 uint64_t rx, bool timed);
  struct HandlerTally {
    double kv_us = 0;
    uint64_t gets = 0, puts = 0, put_bytes = 0, syncs = 0;
  };
  void RecordHandle(tc::net::MessageType type, double us,
                    const HandlerTally& tally);
  void RecordKv(double put_us, double get_us, double sync_us, uint64_t puts,
                uint64_t gets, uint64_t syncs);

  /// Marks the timed phase for TimedNet (RPCs are attributed to the phase
  /// in which they were issued).
  void SetTimed(bool timed) { timed_.store(timed); }
  bool timed() const { return timed_.load(); }

  std::map<tc::net::MessageType, TypeTrace> types() const;
  TimedNet timed_net() const;
  /// Mean time per KvStore put / get / sync across the whole pass.
  double MeanPutUs() const;
  double MeanGetUs() const;
  double MeanSyncUs() const;

 private:
  mutable std::mutex mu_;
  std::map<tc::net::MessageType, TypeTrace> types_;
  TimedNet timed_net_;
  double put_us_ = 0, get_us_ = 0, sync_us_ = 0;
  uint64_t puts_ = 0, gets_ = 0, syncs_ = 0;
  std::atomic<bool> timed_{false};
};

/// Span around one synchronous client call on this thread. End() returns
/// its self time: the call's duration minus the time its RPCs spent between
/// send and response callback. The caller-wake hop after the response lands
/// is outside the decorator and so counts as client time.
class ClientSpan {
 public:
  explicit ClientSpan(const Tracer* tracer);
  /// Ends the span; returns its self time in µs (0 when untraced).
  double End();

 private:
  const Tracer* tracer_;
  int64_t start_ns_ = 0;
  int64_t rpc_ns_start_ = 0;
};

/// net::Transport pass-through that times each RPC from send to response.
class TracingTransport final : public tc::net::Transport {
 public:
  TracingTransport(std::shared_ptr<tc::net::Transport> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  tc::net::PendingCall AsyncCall(tc::net::MessageType type, BytesView body,
                                 tc::net::CallCallback on_done) override;

 private:
  std::shared_ptr<tc::net::Transport> inner_;
  Tracer* tracer_;
};

/// net::RequestHandler pass-through that times each request on the server
/// and the KvStore work done inside it.
class TracingHandler final : public tc::net::RequestHandler {
 public:
  TracingHandler(std::shared_ptr<tc::net::RequestHandler> inner,
                 Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Result<Bytes> Handle(tc::net::MessageType type, BytesView body) override;

 private:
  std::shared_ptr<tc::net::RequestHandler> inner_;
  Tracer* tracer_;
};

/// store::KvStore pass-through that counts and times every operation.
class TracingKv final : public tc::store::KvStore {
 public:
  TracingKv(std::shared_ptr<tc::store::KvStore> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Status Put(const std::string& key, BytesView value) override;
  Result<Bytes> Get(const std::string& key) const override;
  Status Delete(const std::string& key) override {
    return inner_->Delete(key);
  }
  bool Contains(const std::string& key) const override {
    return inner_->Contains(key);
  }
  size_t Size() const override { return inner_->Size(); }
  size_t ValueBytes() const override { return inner_->ValueBytes(); }
  Status Sync() override;
  Status Scan(const std::function<void(const std::string&, BytesView)>& fn)
      const override {
    return inner_->Scan(fn);
  }
  CompactionStats Compaction() const override { return inner_->Compaction(); }

 private:
  std::shared_ptr<tc::store::KvStore> inner_;
  Tracer* tracer_;
};

/// Transport that acknowledges chunk uploads locally and forwards every
/// other call: runs the owner's ingest pipeline with the wire and the
/// server taken out (the client.self_us.insert_record probe).
class AckUploadsTransport final : public tc::net::Transport {
 public:
  explicit AckUploadsTransport(std::shared_ptr<tc::net::Transport> inner)
      : inner_(std::move(inner)) {}

  tc::net::PendingCall AsyncCall(tc::net::MessageType type, BytesView body,
                                 tc::net::CallCallback on_done) override;

 private:
  std::shared_ptr<tc::net::Transport> inner_;
};

/// The system under test: a durable LogKvStore (auto-compaction off) under
/// a ServerEngine flushing after every ingest message, served by a
/// TcpServer on a loopback port. With a tracer, the store, the handler and
/// every connection are wrapped in the tracing decorators.
class Stack {
 public:
  static Result<std::unique_ptr<Stack>> Start(const std::string& log_path,
                                              size_t index_cache_bytes,
                                              Tracer* tracer);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// New TCP connection to the server (decorated when traced).
  Result<std::shared_ptr<tc::net::Transport>> Connect();

  tc::server::ServerEngine& engine() { return *engine_; }
  uint64_t LogBytes() const;

  /// Stop the server and close the engine and the store (flushing the log).
  void Stop();

 private:
  Stack(std::string path, Tracer* tracer)
      : path_(std::move(path)), tracer_(tracer) {}

  std::string path_;
  Tracer* tracer_;
  std::shared_ptr<tc::server::ServerEngine> engine_;
  std::unique_ptr<tc::net::TcpServer> server_;
};

/// The engine options every stack uses: flush after every ingest message
/// (the `tcserver --sync` policy).
tc::server::ServerOptions EngineOptions(size_t index_cache_bytes);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

/// Median round-trip time of a raw loopback TCP ping-pong carrying
/// `request_bytes` out and `response_bytes` back (no framing library).
Result<double> LoopbackRttUs(size_t request_bytes, size_t response_bytes,
                             int rounds);

}  // namespace tcbench
