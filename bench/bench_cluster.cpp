// Cluster-layer scaling benchmark: does throughput scale with the number
// of engine shards (the paper's §4.6 horizontal-scaling claim, Fig 9
// reproduced in-process), and does batched ingest beat chunk-at-a-time
// uploads on a real socket?
//
//  1. Ingest scaling: N log-backed shards behind a ShardRouter, fixed
//     writer-thread pool, digest-only InsertChunk requests. A single
//     shard serializes every append behind one log mutex; N shards give
//     N independent append paths, so aggregate chunks/s should rise with
//     the shard count on a multi-core host.
//  2. Query scaling: GetStatRange over the same fixture from the same
//     thread pool (per-shard stores give independent read paths).
//  3. Batched ingest on loopback TCP: one InsertChunkBatch frame of K
//     chunks vs K InsertChunk round trips against a tcserver-shaped
//     stack (TcpServer + TcpClient) — the batching win is K-1 saved
//     round trips plus one group-committed log sync per batch — now also
//     with the multiplexed transport keeping several batches in flight
//     (blocking send-and-wait vs pipelined AsyncCall).
//  4. Pipelined queries on one socket: Q GetStatRange round trips with an
//     in-flight window of W AsyncCalls (W=1 is the old one-call-per-
//     connection transport), then one call in flight three ways: a
//     blocking Call, AsyncCall().Wait(), and a raw loopback ping-pong of
//     the same frame sizes.
//  5. Scatter-gather latency per shard count: MultiStatRange across
//     latency-injected shards, serial scatter (scatter_threads=1) vs the
//     pipelined shard channels.
//
// `--quick` shrinks sizes for the CI smoke run; TC_BENCH_LARGE=1 unlocks
// an 8-shard sweep. Results depend on available cores: a 1-core host
// shows flat shard scaling (expected — there is nothing to scale onto)
// while the batching/pipelining wins persist, since they save round
// trips, not CPU.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/shard_router.hpp"
#include "index/digest_cipher.hpp"
#include "net/messages.hpp"
#include "net/tcp.hpp"
#include "server/server_engine.hpp"
#include "store/latency.hpp"
#include "store/log_kv.hpp"
#include "store/mem_kv.hpp"

namespace tc::bench {
namespace {

constexpr DurationMs kDelta = 10 * kSecond;

net::StreamConfig PlainConfig(const std::string& name) {
  net::StreamConfig c;
  c.name = name;
  c.t0 = 0;
  c.delta_ms = kDelta;
  c.schema.with_sum = c.schema.with_count = true;
  c.cipher = net::CipherKind::kPlain;
  c.fanout = 64;
  return c;
}

struct LogCluster {
  std::vector<std::string> paths;
  std::vector<std::shared_ptr<server::ServerEngine>> engines;
  std::shared_ptr<cluster::ShardRouter> router;

  explicit LogCluster(size_t shards, bool sync_each_insert) {
    auto dir = std::filesystem::temp_directory_path();
    for (size_t i = 0; i < shards; ++i) {
      std::string path =
          (dir / ("bench_cluster_" + std::to_string(::getpid()) + "_s" +
                  std::to_string(shards) + "_" + std::to_string(i) + ".log"))
              .string();
      std::remove(path.c_str());
      paths.push_back(path);
      auto log = store::LogKvStore::Open(path);
      if (!log.ok()) std::abort();
      server::ServerOptions options;
      options.sync_each_insert = sync_each_insert;
      options.shard_id = static_cast<uint32_t>(i);
      engines.push_back(std::make_shared<server::ServerEngine>(
          std::shared_ptr<store::KvStore>(std::move(*log)), options));
    }
    router = std::make_shared<cluster::ShardRouter>(engines);
  }

  ~LogCluster() {
    engines.clear();
    router.reset();
    for (const auto& path : paths) std::remove(path.c_str());
  }
};

/// Pre-encoded digest-only InsertChunk bodies for `streams` plain streams
/// of `chunks` chunks each (encoding cost is client-side; the benchmark
/// times the server).
struct IngestLoad {
  std::vector<uint64_t> uuids;
  // bodies[s][c] = encoded InsertChunkRequest for stream s, chunk c.
  std::vector<std::vector<Bytes>> bodies;

  IngestLoad(size_t streams, uint64_t chunks) {
    auto cipher = index::MakePlainCipher(2);
    for (size_t s = 0; s < streams; ++s) {
      uuids.push_back(0x1000 + s);
      bodies.emplace_back();
      bodies.back().reserve(chunks);
      for (uint64_t c = 0; c < chunks; ++c) {
        std::vector<uint64_t> fields{c + 1, 1};
        net::InsertChunkRequest req{uuids[s], c, *cipher->Encrypt(fields, c),
                                    {}};
        bodies.back().push_back(req.Encode());
      }
    }
  }
};

void CreateStreams(net::RequestHandler& handler,
                   const std::vector<uint64_t>& uuids) {
  for (uint64_t uuid : uuids) {
    net::CreateStreamRequest req{uuid, PlainConfig("b" + std::to_string(uuid))};
    if (!handler.Handle(net::MessageType::kCreateStream, req.Encode()).ok()) {
      std::abort();
    }
  }
}

/// Partition streams across `threads` workers; each worker drives its
/// streams' requests through the handler. Returns wall seconds.
double RunThreads(size_t threads,
                  const std::function<void(size_t worker)>& body) {
  WallTimer timer;
  std::vector<std::thread> pool;
  for (size_t w = 0; w < threads; ++w) pool.emplace_back(body, w);
  for (auto& t : pool) t.join();
  return timer.Seconds();
}

void BenchShardScaling(const std::vector<size_t>& shard_counts,
                       size_t streams, uint64_t chunks, size_t threads) {
  IngestLoad load(streams, chunks);
  uint64_t total_chunks = streams * chunks;

  std::printf(
      "== ingest scaling: log-backed shards, %zu writer thread(s), "
      "digest-only ==\n",
      threads);
  std::printf("%6s %9s %9s %11s %8s\n", "shards", "chunks", "wall",
              "chunks/s", "speedup");
  double base_rate = 0;
  std::vector<std::unique_ptr<LogCluster>> keep_alive;
  for (size_t shards : shard_counts) {
    auto cluster = std::make_unique<LogCluster>(shards, /*sync=*/false);
    CreateStreams(*cluster->router, load.uuids);
    double wall = RunThreads(threads, [&](size_t worker) {
      for (size_t s = worker; s < load.uuids.size(); s += threads) {
        for (const auto& body : load.bodies[s]) {
          if (!cluster->router
                   ->Handle(net::MessageType::kInsertChunk, body)
                   .ok()) {
            std::abort();
          }
        }
      }
    });
    double rate = static_cast<double>(total_chunks) / wall;
    if (base_rate == 0) base_rate = rate;
    std::printf("%6zu %9llu %9s %10.1fk %7.2fx\n", shards,
                static_cast<unsigned long long>(total_chunks),
                FmtMicros(wall * 1e6).c_str(), rate / 1000.0,
                rate / base_rate);
    keep_alive.push_back(std::move(cluster));
  }

  std::printf(
      "\n== query scaling: GetStatRange over the same fixtures, %zu "
      "reader thread(s) ==\n",
      threads);
  std::printf("%6s %9s %9s %11s %8s\n", "shards", "queries", "wall",
              "queries/s", "speedup");
  uint64_t queries_per_thread = std::max<uint64_t>(total_chunks / 4, 1);
  base_rate = 0;
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    auto& cluster = *keep_alive[i];
    uint64_t total_queries = queries_per_thread * threads;
    double wall = RunThreads(threads, [&](size_t worker) {
      // Deterministic per-worker range walk over all streams.
      uint64_t x = 0x9e3779b9u + worker;
      for (uint64_t q = 0; q < queries_per_thread; ++q) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t uuid = load.uuids[(x >> 33) % load.uuids.size()];
        uint64_t first = (x >> 17) % (chunks - 1);
        uint64_t max_span = chunks - first - 1;
        uint64_t last = first + 1 + (max_span == 0 ? 0 : x % max_span);
        net::StatRangeRequest req{
            uuid,
            {static_cast<Timestamp>(first * kDelta),
             static_cast<Timestamp>(last * kDelta)}};
        if (!cluster.router
                 ->Handle(net::MessageType::kGetStatRange, req.Encode())
                 .ok()) {
          std::abort();
        }
      }
    });
    double rate = static_cast<double>(total_queries) / wall;
    if (base_rate == 0) base_rate = rate;
    std::printf("%6zu %9llu %9s %10.1fk %7.2fx\n", shard_counts[i],
                static_cast<unsigned long long>(total_queries),
                FmtMicros(wall * 1e6).c_str(), rate / 1000.0,
                rate / base_rate);
  }
  std::printf("\n");
}

/// One (batch size, in-flight window) ingest configuration. window == 1 is
/// the blocking send-and-wait path; window > 1 pipelines that many
/// InsertChunkBatch frames on the socket before blocking on the oldest.
struct IngestMode {
  size_t batch;
  size_t window;
};

void BenchBatchedTcpIngest(uint64_t chunks, const std::vector<IngestMode>& modes,
                           bool durable) {
  // One engine behind a real TCP loopback server — the client pays a full
  // round trip per Call, which is exactly what batching amortizes.
  std::string path;
  std::shared_ptr<store::KvStore> kv;
  if (durable) {
    path = (std::filesystem::temp_directory_path() /
            ("bench_cluster_tcp_" + std::to_string(::getpid()) + ".log"))
               .string();
    std::remove(path.c_str());
    auto log = store::LogKvStore::Open(path);
    if (!log.ok()) std::abort();
    kv = std::move(*log);
  } else {
    kv = std::make_shared<store::MemKvStore>();
  }
  server::ServerOptions options;
  options.sync_each_insert = durable;  // batch => one group-committed sync
  auto engine = std::make_shared<server::ServerEngine>(kv, options);
  net::TcpServer server(engine, 0);
  if (!server.Start().ok()) std::abort();
  auto client = net::TcpClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) std::abort();

  auto cipher = index::MakePlainCipher(2);
  Bytes payload(256, 0xab);  // a small sealed payload per chunk

  std::printf(
      "== batched ingest over loopback TCP (%s store%s), %llu chunks ==\n",
      durable ? "log" : "mem", durable ? ", sync per message" : "",
      static_cast<unsigned long long>(chunks));
  std::printf("%9s %9s %9s %11s %8s\n", "batch", "inflight", "wall",
              "chunks/s", "speedup");
  double base_rate = 0;
  uint64_t uuid = 0x2000;
  for (const IngestMode& mode : modes) {
    net::CreateStreamRequest create{++uuid, PlainConfig("tcp")};
    if (!(*client)->Call(net::MessageType::kCreateStream, create.Encode())
             .ok()) {
      std::abort();
    }
    // Pipeline of in-flight frames; window 1 degenerates to send-and-wait.
    std::deque<net::PendingCall> inflight;
    auto pump = [&](size_t limit) {
      while (inflight.size() > limit) {
        if (!inflight.front().Wait().ok()) std::abort();
        inflight.pop_front();
      }
    };
    WallTimer timer;
    if (mode.batch <= 1) {
      for (uint64_t c = 0; c < chunks; ++c) {
        std::vector<uint64_t> fields{c, 1};
        net::InsertChunkRequest req{uuid, c, *cipher->Encrypt(fields, c),
                                    payload};
        inflight.push_back(
            (*client)->AsyncCall(net::MessageType::kInsertChunk,
                                 req.Encode()));
        pump(mode.window - 1);
      }
    } else {
      for (uint64_t c = 0; c < chunks;) {
        net::InsertChunkBatchRequest req;
        req.uuid = uuid;
        for (size_t b = 0; b < mode.batch && c < chunks; ++b, ++c) {
          std::vector<uint64_t> fields{c, 1};
          req.entries.push_back({c, *cipher->Encrypt(fields, c), payload});
        }
        inflight.push_back(
            (*client)->AsyncCall(net::MessageType::kInsertChunkBatch,
                                 req.Encode()));
        pump(mode.window - 1);
      }
    }
    pump(0);
    double wall = timer.Seconds();
    double rate = static_cast<double>(chunks) / wall;
    if (base_rate == 0) base_rate = rate;
    std::printf("%9zu %9zu %9s %10.1fk %7.2fx\n", mode.batch, mode.window,
                FmtMicros(wall * 1e6).c_str(), rate / 1000.0,
                rate / base_rate);
  }
  server.Stop();
  if (durable) std::remove(path.c_str());
  std::printf("\n");
}

/// Bare loopback TCP ping-pong: fixed-size request and response frames
/// bounced off an echo thread, with none of the transport's framing,
/// demux or dispatch — the round-trip floor for the transport rows.
class LoopbackPingPong {
 public:
  LoopbackPingPong(size_t request_bytes, size_t response_bytes)
      : request_(request_bytes, 0xa5), response_(response_bytes) {
    int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      std::abort();
    }
    echo_ = std::thread([this, listener, response_bytes] {
      int fd = ::accept(listener, nullptr, nullptr);
      ::close(listener);
      if (fd < 0) std::abort();
      NoDelay(fd);
      Bytes in(request_.size()), out(response_bytes, 0x5a);
      while (net::ReadExact(fd, in).ok() && net::WriteAll(fd, out).ok()) {
      }
      ::close(fd);
    });
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::abort();
    }
    NoDelay(fd_);
  }

  ~LoopbackPingPong() {
    ::shutdown(fd_, SHUT_RDWR);  // ends the echo loop
    echo_.join();
    ::close(fd_);
  }

  void RoundTrip() {
    if (!net::WriteAll(fd_, request_).ok() ||
        !net::ReadExact(fd_, response_).ok()) {
      std::abort();
    }
  }

 private:
  static void NoDelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  Bytes request_;
  Bytes response_;
  int fd_ = -1;
  std::thread echo_;
};

void BenchPipelinedTcpQueries(uint64_t chunks, uint64_t queries,
                              const std::vector<size_t>& windows) {
  // One engine behind loopback TCP; every query pays a full round trip.
  // The window is how many AsyncCalls ride the socket at once — window 1
  // reproduces the old blocking transport (one in-flight call per
  // connection), larger windows overlap the round trips.
  auto engine = std::make_shared<server::ServerEngine>(
      std::make_shared<store::MemKvStore>());
  net::TcpServer server(engine, 0);
  if (!server.Start().ok()) std::abort();
  auto client = net::TcpClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) std::abort();

  uint64_t uuid = 0x3000;
  net::CreateStreamRequest create{uuid, PlainConfig("q")};
  if (!(*client)->Call(net::MessageType::kCreateStream, create.Encode()).ok())
    std::abort();
  auto cipher = index::MakePlainCipher(2);
  for (uint64_t c = 0; c < chunks; ++c) {
    std::vector<uint64_t> fields{c + 1, 1};
    net::InsertChunkRequest req{uuid, c, *cipher->Encrypt(fields, c), {}};
    if (!(*client)->Call(net::MessageType::kInsertChunk, req.Encode()).ok())
      std::abort();
  }

  constexpr uint64_t kSeed = 0x2545f4914f6cdd1dULL;
  uint64_t x = kSeed;
  auto next_request = [&] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t first = (x >> 33) % (chunks - 1);
    uint64_t last = first + 1 + (x >> 17) % (chunks - first - 1 + 1);
    net::StatRangeRequest req{
        uuid,
        {static_cast<Timestamp>(first * kDelta),
         static_cast<Timestamp>(last * kDelta)}};
    return req.Encode();
  };

  std::printf(
      "== pipelined queries over loopback TCP: %llu GetStatRange round "
      "trips on one socket ==\n",
      static_cast<unsigned long long>(queries));
  std::printf("%9s %9s %11s %8s\n", "inflight", "wall", "queries/s",
              "speedup");
  double base_rate = 0;
  for (size_t window : windows) {
    std::deque<net::PendingCall> inflight;
    auto pump = [&](size_t limit) {
      while (inflight.size() > limit) {
        if (!inflight.front().Wait().ok()) std::abort();
        inflight.pop_front();
      }
    };
    x = kSeed;  // every window runs the same query sequence
    WallTimer timer;
    for (uint64_t q = 0; q < queries; ++q) {
      inflight.push_back((*client)->AsyncCall(net::MessageType::kGetStatRange,
                                              next_request()));
      pump(window - 1);
    }
    pump(0);
    double wall = timer.Seconds();
    double rate = static_cast<double>(queries) / wall;
    if (base_rate == 0) base_rate = rate;
    std::printf("%9zu %9s %10.1fk %7.2fx\n", window,
                FmtMicros(wall * 1e6).c_str(), rate / 1000.0,
                rate / base_rate);
  }
  std::printf("\n");

  // One call in flight, three ways: a blocking Call reads its own
  // response; AsyncCall().Wait() is completed by the client's reader
  // thread (one more thread hop); the raw ping-pong moves the same frame
  // sizes over a bare loopback socket — the floor both sit above.
  Bytes sample = next_request();
  auto reply = (*client)->Call(net::MessageType::kGetStatRange, sample);
  if (!reply.ok()) std::abort();
  size_t request_bytes = net::EncodeFrame(net::MessageType::kGetStatRange, 1,
                                          sample).size();
  size_t response_bytes =
      net::EncodeFrame(net::MessageType::kResponse, 1,
                       net::EncodeResponseBody(Status::Ok(), *reply))
          .size();
  std::printf("== one call in flight: %llu round trips ==\n",
              static_cast<unsigned long long>(queries));
  std::printf("%-22s %10s %11s\n", "mode", "median", "queries/s");
  auto row = [&](const char* mode, const std::function<void()>& round_trip) {
    std::vector<double> samples;
    samples.reserve(queries);
    WallTimer total;
    for (uint64_t q = 0; q < queries; ++q) {
      WallTimer one;
      round_trip();
      samples.push_back(one.Seconds() * 1e6);
    }
    double rate = static_cast<double>(queries) / total.Seconds();
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                     samples.end());
    std::printf("%-22s %10s %10.1fk\n", mode,
                FmtMicros(samples[samples.size() / 2]).c_str(),
                rate / 1000.0);
  };
  row("TcpClient::Call", [&] {
    if (!(*client)->Call(net::MessageType::kGetStatRange, next_request())
             .ok()) {
      std::abort();
    }
  });
  row("AsyncCall().Wait()", [&] {
    if (!(*client)
             ->AsyncCall(net::MessageType::kGetStatRange, next_request())
             .Wait()
             .ok()) {
      std::abort();
    }
  });
  server.Stop();

  LoopbackPingPong raw(request_bytes, response_bytes);
  row("raw loopback ping-pong", [&] { raw.RoundTrip(); });
  std::printf("\n");
}

void BenchScatterGatherLatency(const std::vector<size_t>& shard_counts,
                               uint64_t chunks, uint64_t queries) {
  // Each shard's store pays an emulated remote-store hop (the paper's
  // client<->Cassandra RTT) and the engine cache is starved so queries
  // actually hit it; a MultiStatRange spanning all shards then takes
  // N x per-shard-latency when the scatter is serial and ~1 x when the
  // shard channels pipeline. scatter_threads=1 reproduces the serial
  // scatter of a blocking per-shard transport.
  std::printf(
      "== scatter-gather latency: MultiStatRange across latency-injected "
      "shards (0.5 ms/store-op) ==\n");
  std::printf("%6s %12s %12s %8s\n", "shards", "serial", "pipelined",
              "speedup");
  for (size_t shards : shard_counts) {
    double wall[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      std::vector<std::shared_ptr<server::ServerEngine>> engines;
      for (size_t i = 0; i < shards; ++i) {
        auto slow = std::make_shared<store::LatencyKvStore>(
            std::make_shared<store::MemKvStore>(),
            std::chrono::microseconds(500));
        server::ServerOptions options;
        options.shard_id = static_cast<uint32_t>(i);
        options.index_cache_bytes = 1;  // starve the cache: queries hit kv
        engines.push_back(
            std::make_shared<server::ServerEngine>(std::move(slow), options));
      }
      cluster::RouterOptions router_options;
      // Serial mode models the old blocking per-shard scatter; pipelined
      // mode sizes the channel executor one-thread-per-shard (what the
      // default resolves to on a host with >= shards cores) so the
      // store-latency waits overlap even on a small CI box.
      router_options.scatter_threads = mode == 0 ? 1 : shards;
      cluster::ShardRouter router(engines, router_options);

      // One stream per shard, covering every shard in the scatter.
      std::vector<uint64_t> uuids;
      auto cipher = index::MakePlainCipher(2);
      for (size_t s = 0; s < shards; ++s) {
        uint64_t uuid = 0x4000 + s;
        while (router.ShardOf(uuid) != s) ++uuid;
        uuids.push_back(uuid);
        net::CreateStreamRequest create{uuid, PlainConfig("sc")};
        if (!router.Handle(net::MessageType::kCreateStream, create.Encode())
                 .ok()) {
          std::abort();
        }
        for (uint64_t c = 0; c < chunks; ++c) {
          std::vector<uint64_t> fields{c + 1, 1};
          net::InsertChunkRequest req{uuid, c, *cipher->Encrypt(fields, c),
                                      {}};
          if (!router.Handle(net::MessageType::kInsertChunk, req.Encode())
                   .ok()) {
            std::abort();
          }
        }
      }
      net::MultiStatRangeRequest req{
          uuids, {0, static_cast<Timestamp>(chunks * kDelta)}};
      Bytes body = req.Encode();
      WallTimer timer;
      for (uint64_t q = 0; q < queries; ++q) {
        if (!router.Handle(net::MessageType::kMultiStatRange, body).ok()) {
          std::abort();
        }
      }
      wall[mode] = timer.Seconds();
    }
    std::printf("%6zu %11.2fms %11.2fms %7.2fx\n", shards,
                wall[0] * 1e3 / static_cast<double>(queries),
                wall[1] * 1e3 / static_cast<double>(queries),
                wall[0] / wall[1]);
  }
  std::printf("\n");
}

// Assert the overhead bound only where it is meaningful: optimized code,
// no sanitizer instrumentation inflating every atomic op.
#if defined(NDEBUG)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define TC_BENCH_ASSERT_OVERHEAD 1
#endif
#elif !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define TC_BENCH_ASSERT_OVERHEAD 1
#endif
#endif

void BenchMetricsOverhead(bool assert_bound) {
  // The marginal cost the TC_METRICS=OFF kill switch removes: one
  // Counter::Inc plus one LatencyHistogram::Record per request (the
  // per-message-type count + latency pair every instrumented handler pays).
  // In the OFF build both calls compile to nothing, so this same binary
  // asserts the switch works: the loop must then cost ~0 ns/op.
  constexpr uint64_t kOps = 2'000'000;
  auto& ops = metrics::GetCounter("tc_bench_overhead_total");
  auto& latency = metrics::GetHistogram("tc_bench_overhead_us");
  WallTimer timer;
  for (uint64_t i = 0; i < kOps; ++i) {
    ops.Inc();
    latency.Record(i & 0x3FF);
  }
  double ns_per_op = timer.Seconds() * 1e9 / static_cast<double>(kOps);
  std::printf(
      "== metrics record overhead (%s): %.1f ns per instrumented "
      "request ==\n\n",
      metrics::kEnabled ? "registry on" : "TC_METRICS=OFF", ns_per_op);
  // Anything under this bound is lost in the noise of a ~28 us request
  // round trip (the pipelined-ingest path above); a regression to a locked
  // or false-sharing record path would blow through it by an order of
  // magnitude.
  constexpr double kBoundNs = 250.0;
#if defined(TC_BENCH_ASSERT_OVERHEAD)
  if (assert_bound && ns_per_op > kBoundNs) {
    std::fprintf(stderr,
                 "metrics overhead %.1f ns/op exceeds the %.0f ns noise "
                 "bound — the record path is no longer lock-free?\n",
                 ns_per_op, kBoundNs);
    std::abort();
  }
#else
  (void)assert_bound;
  (void)kBoundNs;
#endif
}

void BenchSpanOverhead(bool assert_bound) {
  // The marginal cost of distributed tracing: one TraceSpan open/close per
  // request — two clock reads, the sampling hash, and a lock-free ring
  // push. Under TC_METRICS=OFF the span compiles to nothing, so the same
  // binary asserts the kill switch covers tracing too.
  constexpr uint64_t kOps = 1'000'000;
  WallTimer timer;
  for (uint64_t i = 0; i < kOps; ++i) {
    metrics::TraceSpan span("bench_span", nullptr, 0, 0);
  }
  double ns_per_op = timer.Seconds() * 1e9 / static_cast<double>(kOps);
  std::printf(
      "== span record overhead (%s): %.1f ns per traced request ==\n\n",
      metrics::kEnabled ? "registry on" : "TC_METRICS=OFF", ns_per_op);
  // Same noise bound as the counter+histogram pair above: a span is two
  // steady_clock reads plus a seqlock-slot write, far under the ~28 us
  // request round trip. A regression to a locked ring blows through it.
  constexpr double kBoundNs = 250.0;
#if defined(TC_BENCH_ASSERT_OVERHEAD)
  if (assert_bound && ns_per_op > kBoundNs) {
    std::fprintf(stderr,
                 "span overhead %.1f ns/op exceeds the %.0f ns noise "
                 "bound — the span ring is no longer lock-free?\n",
                 ns_per_op, kBoundNs);
    std::abort();
  }
#else
  (void)assert_bound;
  (void)kBoundNs;
#endif
}

}  // namespace
}  // namespace tc::bench

int main(int argc, char** argv) {
  using namespace tc::bench;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::vector<size_t> shard_counts = {1, 2, 4};
  if (LargeRuns()) shard_counts.push_back(8);
  size_t streams = 8;
  uint64_t chunks = quick ? 400 : 4000;
  size_t hw = std::thread::hardware_concurrency();
  // Floor at 2 so the concurrent routing path is exercised even on a
  // single-core runner (where the speedup column will read ~1.0x).
  size_t threads = std::max<size_t>(2, std::min<size_t>(4, hw));
  std::printf("bench_cluster: %zu hardware thread(s) visible — shard "
              "speedups need cores to land on\n\n",
              hw);

  BenchShardScaling(shard_counts, streams, chunks, threads);
  // Blocking (window 1) vs pipelined (window 4) batched ingest.
  std::vector<IngestMode> modes = {{1, 1}, {1, 8}, {16, 1},
                                   {64, 1}, {16, 4}, {64, 4}};
  BenchBatchedTcpIngest(quick ? 512 : 4096, modes, /*durable=*/false);
  BenchBatchedTcpIngest(quick ? 512 : 4096, modes, /*durable=*/true);
  BenchPipelinedTcpQueries(quick ? 128 : 512, quick ? 500 : 4000,
                           {1, 8, 32});
  BenchScatterGatherLatency(shard_counts, quick ? 32 : 64, quick ? 5 : 20);
  BenchMetricsOverhead(/*assert_bound=*/quick);
  BenchSpanOverhead(/*assert_bound=*/quick);
  PrintStageBreakdown();
  return 0;
}
