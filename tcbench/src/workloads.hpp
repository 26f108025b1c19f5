// The three tcbench workloads (ingest, query, dashboard). Each runs a pass
// of one or more rounds; a round starts a fresh stack on a fresh log, times
// the workload's phase, checks every result against reference aggregates
// computed from the generated inputs, then stops the stack and times a
// recovery from the log.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probes.hpp"

namespace tcbench {

/// One completed query: when it completed and how long it took.
struct QuerySample {
  int64_t done_ns = 0;
  double us = 0;
};

/// Query latency and rate are summarised per block of this many
/// consecutive completions; the end-to-end figures are medians over blocks,
/// so a burst of machine noise moves a few blocks, not the result.
inline constexpr size_t kQueryBlock = 1000;

struct PassConfig {
  uint64_t seed = 1;
  double seconds = 10;
  std::string dir;             // scratch directory for the logs
  bool plain = false;          // CipherKind::kPlain streams (baseline arm)
  bool single_round = false;   // one round only (baseline arm)
  Tracer* tracer = nullptr;    // non-null: traced pass, run layer probes
};

/// Everything one pass measured.
struct PassOutput {
  // End-to-end raw material.
  std::vector<double> setup_s;
  std::vector<double> recover_s;
  std::vector<double> open_s;       // LogKvStore::Open part of recover_s
  // Records acknowledged per second: one sample per round, or per
  // acknowledged block where the workload has them.
  std::vector<double> ingest_rate;
  uint64_t log_growth_bytes = 0;
  uint64_t log_chunks = 0;
  std::vector<double> query_us;      // every latency sample, pooled
  std::vector<double> block_p50_us;  // per block of kQueryBlock queries
  std::vector<double> block_p99_us;
  std::vector<double> block_rate;    // completions per second
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Digests of deterministic results, one list per "round/phase" (traced
  // and untraced passes must agree on each list's common prefix).
  std::map<std::string, std::vector<uint64_t>> results;

  // Traced-pass raw material.
  std::map<std::string, std::vector<double>> client_self_us;  // by op
  uint64_t timed_ops = 0;          // chunks + queries in timed phases
  uint64_t uploaded_chunks = 0;    // chunks the server ingested (all phases)
  uint64_t cache_hits = 0, cache_misses = 0;  // timed phases
  std::map<std::string, double> layers;       // probe results

  // Run context.
  std::map<std::string, std::string> context;

  /// Book one round's timed queries (any completion order).
  void AddRoundQueries(std::vector<QuerySample> samples);
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Status RunPass(const PassConfig& config, PassOutput& out) = 0;
  /// Message type of the workload's query op (per-query store metrics).
  virtual tc::net::MessageType query_type() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace tcbench
