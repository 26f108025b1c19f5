// tcbench: end-to-end benchmark of the TimeCrypt stack over loopback TCP.
//
//   tcbench --workload ingest|query|dashboard --seed N --seconds S
//           --trace 0|1 [--dir DIR]
//
// --trace 0 runs the workload once with nothing but the benchmark's own
// clocks and prints the end-to-end metrics. --trace 1 runs it untraced,
// then again with the pass-through decorators installed (plus direct layer
// probes), then a plaintext-stream arm and a raw loopback ping-pong, and
// prints the per-layer metrics, the tracing overhead, and whether both
// runs returned the same results. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// See README.md for the workloads and what each metric measures.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "client/consumer.hpp"
#include "crypto/aesni.hpp"
#include "net/messages.hpp"
#include "probes.hpp"
#include "workload/mhealth.hpp"
#include "workloads.hpp"

namespace tcbench {
namespace {

using tc::net::MessageType;

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_build/tcbench-run";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && args.seconds > 0;
}

// Rates and latencies are taken at the worse quartile of their blocks (the
// lower quartile of rates, the upper of latencies). On a shared host the
// level every run shows is the slow one: faster phases, where the host
// wakes threads sooner, come and go for a few rounds at a time, and the
// better half of a run's blocks follows how long they lasted. At the worse
// quartile a faster phase has to cover three quarters of the blocks, and a
// slow burst a quarter, to move the figure, while a change in the program
// moves every block.
std::vector<Metric> EndToEnd(const PassOutput& p) {
  return {
      {"setup_s", "s", Median(p.setup_s)},
      {"ingest_records_per_s", "1/s", Quantile(p.ingest_rate, 0.25)},
      {"query_p50_us", "us", Quantile(p.block_p50_us, 0.75)},
      {"log_bytes_per_chunk", "bytes",
       static_cast<double>(p.log_growth_bytes) /
           static_cast<double>(p.log_chunks)},
      {"recover_s", "s", InterquartileMean(p.recover_s)},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
}

// The query tail and the completion rate (in a closed loop, 1 / mean
// latency, so it carries the tail), aggregated like query_p50_us. Reported,
// but not end-to-end metrics: host noise moves them by more than any bound
// allows.
double TailP99(const PassOutput& p) { return Quantile(p.block_p99_us, 0.75); }
double QueryRate(const PassOutput& p) { return Quantile(p.block_rate, 0.25); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayer(const PassOutput& untraced, const PassOutput& t,
                             const Tracer& tracer, const Workload& workload,
                             const PassOutput& plain, double loopback_rtt_us) {
  std::vector<Metric> m;
  m.push_back({"e2e.query_p99_us", "us", TailP99(untraced)});
  m.push_back({"e2e.queries_per_s", "1/s", QueryRate(untraced)});
  auto self = [&](const char* op) {
    auto it = t.client_self_us.find(op);
    return it == t.client_self_us.end() ? 0.0 : Median(it->second);
  };
  m.push_back({"client.self_us.get_stat_range", "us", self("get_stat_range")});
  m.push_back(
      {"client.self_us.get_stat_series", "us", self("get_stat_series")});
  for (const char* name :
       {"client.self_us.insert_record", "crypto.ggm_leaf_us",
        "crypto.token_leaf_us", "crypto.envelope_leaf_us",
        "crypto.heac_encrypt_us", "crypto.heac_decrypt_us", "chunk.seal_us"}) {
    m.push_back({name, "us", t.layers.at(name)});
  }
  m.push_back({"chunk.payload_bytes_per_record", "bytes",
               t.layers.at("chunk.payload_bytes_per_record")});

  auto types = tracer.types();
  for (MessageType type :
       {MessageType::kGetStatRange, MessageType::kGetStatSeries,
        MessageType::kInsertChunkBatch}) {
    const std::string name = tc::net::MessageTypeName(type);
    const TypeTrace& tt = types[type];
    double handle_mean = Mean(tt.handle_us);
    double kv_mean = Ratio(tt.handle_kv_us,
                           static_cast<double>(tt.handle_us.size()));
    m.push_back(
        {"net.rpc_us." + name + ".p50", "us", Quantile(tt.rpc_us, 0.5)});
    m.push_back(
        {"net.rpc_us." + name + ".p99", "us", Quantile(tt.rpc_us, 0.99)});
    m.push_back({"net.self_us." + name, "us", Mean(tt.rpc_us) - handle_mean});
    m.push_back({"server.handle_us." + name + ".p50", "us",
                 Quantile(tt.handle_us, 0.5)});
    m.push_back({"server.handle_us." + name + ".p99", "us",
                 Quantile(tt.handle_us, 0.99)});
    m.push_back({"server.self_us." + name, "us", handle_mean - kv_mean});
  }
  TimedNet net = tracer.timed_net();
  double ops = static_cast<double>(t.timed_ops);
  m.push_back({"net.rpcs_per_op", "count",
               Ratio(static_cast<double>(net.rpcs), ops)});
  m.push_back({"net.tx_bytes_per_op", "bytes",
               Ratio(static_cast<double>(net.tx_bytes), ops)});
  m.push_back({"net.rx_bytes_per_op", "bytes",
               Ratio(static_cast<double>(net.rx_bytes), ops)});

  m.push_back({"index.query_us", "us", t.layers.at("index.query_us")});
  m.push_back({"index.nodes_per_query", "count",
               t.layers.at("index.nodes_per_query")});
  m.push_back({"index.digest_adds_per_query", "count",
               t.layers.at("index.digest_adds_per_query")});
  m.push_back({"index.cache_hit_ratio", "ratio",
               Ratio(static_cast<double>(t.cache_hits),
                     static_cast<double>(t.cache_hits + t.cache_misses))});
  m.push_back({"index.bytes_per_chunk", "bytes",
               t.layers.at("index.bytes_per_chunk")});

  const TypeTrace& ingest = types[MessageType::kInsertChunkBatch];
  const TypeTrace& query = types[workload.query_type()];
  double chunks = static_cast<double>(t.uploaded_chunks);
  m.push_back({"store.puts_per_chunk", "count",
               Ratio(static_cast<double>(ingest.kv_puts), chunks)});
  m.push_back({"store.put_bytes_per_chunk", "bytes",
               Ratio(static_cast<double>(ingest.kv_put_bytes), chunks)});
  m.push_back({"store.put_us", "us", tracer.MeanPutUs()});
  m.push_back({"store.gets_per_query", "count",
               Ratio(static_cast<double>(query.kv_gets),
                     static_cast<double>(query.handle_us.size()))});
  m.push_back({"store.get_us", "us", tracer.MeanGetUs()});
  m.push_back({"store.syncs_per_chunk", "count",
               Ratio(static_cast<double>(ingest.kv_syncs), chunks)});
  m.push_back({"store.sync_us", "us", tracer.MeanSyncUs()});
  m.push_back({"store.open_s", "s", Median(t.open_s)});

  m.push_back({"baseline.plain_query_p50_us", "us",
               Quantile(plain.query_us, 0.5)});
  m.push_back({"baseline.plain_ingest_records_per_s", "1/s",
               Quantile(plain.ingest_rate, 0.25)});
  m.push_back({"baseline.loopback_rtt_us", "us", loopback_rtt_us});
  return m;
}

/// Frame sizes of one GetStatRange round trip on the query stream.
std::pair<size_t, size_t> QueryFrameBytes() {
  size_t fields = tc::workload::MHealthGenerator::VitalsSchema().num_fields();
  tc::net::StatRangeRequest req{1, {0, 1}};
  tc::net::StatRangeResponse resp{0, 1, Bytes(fields * 8)};
  return {tc::net::kFrameHeaderBytes + req.Encode().size(),
          tc::net::kFrameHeaderBytes +
              tc::net::EncodeResponseBody(Status::Ok(), resp.Encode()).size()};
}

/// Traced and untraced passes on one seed must return the same results:
/// compares the deterministic result digests of each round and phase over
/// their common prefix. Returns the number compared, -1 on a mismatch.
long CompareResults(const PassOutput& a, const PassOutput& b) {
  long compared = 0;
  for (const auto& [key, mine] : a.results) {
    auto it = b.results.find(key);
    if (it == b.results.end()) continue;
    size_t n = std::min(mine.size(), it->second.size());
    for (size_t i = 0; i < n; ++i) {
      if (mine[i] != it->second[i]) return -1;
    }
    compared += static_cast<long>(n);
  }
  return compared;
}

void PrintE2E(const char* label, const PassOutput& p,
              const std::vector<Metric>& e2e) {
  for (const auto& metric : e2e) {
    std::printf("%s %-22s %14.4f %s\n", label, metric.name.c_str(),
                metric.value, metric.unit);
  }
  std::printf("%s %-22s %14.4f us (reported, not gated)\n", label,
              "query_p99_us", TailP99(p));
  std::printf("%s %-22s %14.4f 1/s (reported, not gated)\n", label,
              "queries_per_s", QueryRate(p));
  std::printf("%s query samples: %zu over %zu rounds; "
              "failed %llu of %llu ops attempted (%.4f%%)\n",
              label, p.query_us.size(), p.setup_s.size(),
              static_cast<unsigned long long>(p.failed),
              static_cast<unsigned long long>(p.attempted),
              100.0 * Ratio(static_cast<double>(p.failed),
                            static_cast<double>(p.attempted)));
  auto list = [](const std::vector<double>& v) {
    std::string s;
    for (double x : v) s += " " + std::to_string(static_cast<long long>(x));
    return s;
  };
  std::printf("%s ingest_records_per_s samples (rounds or blocks):%s\n", label,
              list(p.ingest_rate).c_str());
  std::string blocks;
  for (double x : p.block_p50_us) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.1f", x);
    blocks += buf;
  }
  std::printf("%s query block p50s (us, in order):%s\n", label,
              blocks.c_str());
  auto quartiles = [](const std::vector<double>& v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.1f / %.1f / %.1f", Quantile(v, 0.25),
                  Quantile(v, 0.5), Quantile(v, 0.75));
    return std::string(buf);
  };
  std::printf("%s query blocks: %zu of ~%zu; block p50 quartiles %s us; "
              "block p99 quartiles %s us\n",
              label, p.block_p50_us.size(), kQueryBlock,
              quartiles(p.block_p50_us).c_str(),
              quartiles(p.block_p99_us).c_str());
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  auto workload = MakeWorkload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "tcbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  if (ec) {
    std::fprintf(stderr, "tcbench: cannot create %s\n", args.dir.c_str());
    return 1;
  }

  PassConfig cfg;
  cfg.seed = args.seed;
  cfg.seconds = args.seconds;
  cfg.dir = args.dir;

  PassOutput untraced;
  if (Status s = workload->RunPass(cfg, untraced); !s.ok()) {
    std::fprintf(stderr, "tcbench: %s pass failed: %s\n",
                 args.workload.c_str(), s.ToString().c_str());
    return 1;
  }
  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("context: nproc=%u aesni=%s flush=sync_each_insert "
              "(fflush per ingest message, auto-compaction off)\n",
              std::thread::hardware_concurrency(),
              tc::crypto::CpuHasAesNi() ? "yes" : "no");
  for (const auto& [key, value] : untraced.context) {
    std::printf("context: %s=%s\n", key.c_str(), value.c_str());
  }
  std::printf("context: rounds=%zu chunks_ingested=%llu\n",
              untraced.setup_s.size(),
              static_cast<unsigned long long>(untraced.log_chunks));
  auto e2e = EndToEnd(untraced);
  PrintE2E("untraced", untraced, e2e);

  if (!args.trace) {
    PrintResult(untraced.failed == 0, untraced.attempted, untraced.failed,
                e2e);
    return 0;
  }

  Tracer tracer;
  PassOutput traced;
  cfg.tracer = &tracer;
  if (Status s = workload->RunPass(cfg, traced); !s.ok()) {
    std::fprintf(stderr, "tcbench: traced pass failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto traced_e2e = EndToEnd(traced);
  PrintE2E("traced", traced, traced_e2e);
  for (size_t i = 0; i < e2e.size(); ++i) {
    double delta = traced_e2e[i].value - e2e[i].value;
    std::printf("tracing_overhead %-22s %+14.4f %s (%+.2f%%)\n",
                e2e[i].name.c_str(), delta, e2e[i].unit,
                100.0 * Ratio(delta, e2e[i].value));
  }
  long compared = CompareResults(untraced, traced);
  std::printf("trace_hygiene: %s (%ld deterministic results compared)\n",
              compared < 0 ? "MISMATCH" : "identical",
              compared < 0 ? 0 : compared);

  PassOutput plain;
  PassConfig plain_cfg = cfg;
  plain_cfg.tracer = nullptr;
  plain_cfg.plain = true;
  plain_cfg.single_round = true;
  plain_cfg.seconds = cfg.seconds / 4;
  if (Status s = workload->RunPass(plain_cfg, plain); !s.ok()) {
    std::fprintf(stderr, "tcbench: plaintext pass failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  auto [request_bytes, response_bytes] = QueryFrameBytes();
  auto rtt = LoopbackRttUs(request_bytes, response_bytes, 20000);
  if (!rtt.ok()) {
    std::fprintf(stderr, "tcbench: loopback probe failed: %s\n",
                 rtt.status().ToString().c_str());
    return 1;
  }

  auto layers = PerLayer(untraced, traced, tracer, *workload, plain, *rtt);
  for (const auto& metric : layers) {
    std::printf("layer %-42s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit);
  }
  uint64_t attempted = untraced.attempted + traced.attempted + plain.attempted;
  uint64_t failed = untraced.failed + traced.failed + plain.failed;
  PrintResult(failed == 0 && compared >= 0, attempted, failed, layers);
  return 0;
}

}  // namespace
}  // namespace tcbench

int main(int argc, char** argv) {
  tcbench::Args args;
  if (!tcbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: tcbench --workload ingest|query|dashboard --seed N "
                 "--seconds S --trace 0|1 [--dir DIR]\n");
    return 2;
  }
  int rc = tcbench::Run(args);
  std::error_code ec;
  std::filesystem::remove_all(args.dir, ec);
  return rc;
}
