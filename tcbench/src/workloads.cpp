#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "chunk/chunk.hpp"
#include "client/consumer.hpp"
#include "client/owner.hpp"
#include "common/metrics.hpp"
#include "crypto/rand.hpp"
#include "crypto/sealed_box.hpp"
#include "index/digest_cipher.hpp"
#include "workload/devops.hpp"
#include "workload/mhealth.hpp"

namespace tcbench {
namespace {

using tc::client::ConsumerClient;
using tc::client::OwnerClient;
using tc::client::StatResult;
using tc::index::DataPoint;
using tc::net::MessageType;

constexpr size_t kDefaultCacheBytes = 256u << 20;  // ServerOptions default
constexpr size_t kQueryCacheBytes = 1u << 20;      // Fig. 7c "Query S"

// Consumer dashboards: one-hour windows of 6-chunk (resolution) bins.
constexpr uint64_t kSeriesWindowChunks = 60;
constexpr uint64_t kSeriesGranularity = 6;

// ------------------------------------------------------------------ inputs

/// Pre-generated chunks of one series, cycled: stream chunk c carries the
/// points of pool chunk c % P, shifted into chunk c's window. Reference
/// aggregates come from the pool's digest prefix sums.
struct SeriesPool {
  std::vector<std::vector<DataPoint>> chunks;  // timestamps relative to window
  std::vector<std::vector<uint64_t>> digests;  // plaintext digest per chunk
  std::vector<std::vector<uint64_t>> prefix;   // digest sum of chunks [0, k)

  void Finish(const tc::index::DigestSchema& schema) {
    size_t fields = schema.num_fields();
    prefix.assign(1, std::vector<uint64_t>(fields, 0));
    for (const auto& points : chunks) {
      digests.push_back(schema.Compute(points));
      std::vector<uint64_t> next = prefix.back();
      tc::index::AddDigests(next, digests.back());
      prefix.push_back(std::move(next));
    }
  }

  uint64_t size() const { return chunks.size(); }
  size_t records_per_chunk() const { return chunks[0].size(); }

  /// Digest sum of stream chunks [0, n), in the mod-2^64 digest ring.
  std::vector<uint64_t> Prefix(uint64_t n) const {
    std::vector<uint64_t> out = prefix[n % size()];
    uint64_t cycles = n / size();
    for (size_t f = 0; f < out.size(); ++f) out[f] += cycles * prefix.back()[f];
    return out;
  }

  /// Reference aggregate of stream chunks [first, last).
  std::vector<uint64_t> Range(uint64_t first, uint64_t last) const {
    std::vector<uint64_t> out = Prefix(last);
    std::vector<uint64_t> lo = Prefix(first);
    for (size_t f = 0; f < out.size(); ++f) out[f] -= lo[f];
    return out;
  }
};

struct StreamSpec {
  uint64_t uuid = 0;
  tc::crypto::Key128 master{};
  tc::net::StreamConfig config;
  const SeriesPool* pool = nullptr;

  tc::TimeRange Chunks(uint64_t first, uint64_t last) const {
    return {config.t0 + static_cast<int64_t>(first) * config.delta_ms,
            config.t0 + static_cast<int64_t>(last) * config.delta_ms};
  }
};

/// Stream identities from the seed: fixed-width uuids (so log records have
/// the same size on every run) and master keys.
std::vector<StreamSpec> MakeSpecs(uint64_t seed, size_t n,
                                  const tc::net::StreamConfig& config,
                                  const std::vector<SeriesPool>& pools) {
  tc::crypto::DeterministicRng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  std::vector<StreamSpec> specs(n);
  for (size_t i = 0; i < n; ++i) {
    StreamSpec& s = specs[i];
    bool unique = false;
    while (!unique) {
      s.uuid = 1'000'000'000'000'000'000ULL +
               rng.NextBelow(8'000'000'000'000'000'000ULL);
      unique = std::none_of(
          specs.begin(), specs.begin() + i,
          [&](const StreamSpec& o) { return o.uuid == s.uuid; });
    }
    rng.Fill(s.master);
    s.config = config;
    s.config.name = config.name + "/" + std::to_string(i);
    s.pool = &pools[i % pools.size()];
  }
  return specs;
}

tc::net::StreamConfig BaseConfig(const std::string& name,
                                 tc::DurationMs delta,
                                 const tc::index::DigestSchema& schema,
                                 bool plain) {
  tc::net::StreamConfig c;
  c.name = name;
  c.t0 = 0;
  c.delta_ms = delta;
  c.schema = schema;
  c.cipher = plain ? tc::net::CipherKind::kPlain : tc::net::CipherKind::kHeac;
  return c;
}

Status CreateStreams(tc::net::Transport& transport, OwnerClient& owner,
                     const std::vector<StreamSpec>& specs) {
  for (const auto& s : specs) {
    tc::net::CreateStreamRequest req{s.uuid, s.config};
    TC_RETURN_IF_ERROR(
        transport.Call(MessageType::kCreateStream, req.Encode()).status());
    TC_RETURN_IF_ERROR(owner.AttachStream(s.uuid, s.master));
  }
  return Status::Ok();
}

/// Feed stream chunk `c` record by record through the owner's ingest path.
Status InsertChunk(OwnerClient& owner, const StreamSpec& s, uint64_t c) {
  const auto& points = s.pool->chunks[c % s.pool->size()];
  int64_t base = s.config.t0 + static_cast<int64_t>(c) * s.config.delta_ms;
  for (const auto& p : points) {
    TC_RETURN_IF_ERROR(
        owner.InsertRecord(s.uuid, {base + p.timestamp_ms, p.value}));
  }
  return Status::Ok();
}

std::unique_ptr<OwnerClient> MakeOwner(
    std::shared_ptr<tc::net::Transport> transport, uint64_t batch_chunks) {
  tc::client::OwnerOptions options;
  options.upload_batch_chunks = batch_chunks;
  options.upload_inflight_batches = 4;
  return std::make_unique<OwnerClient>(std::move(transport), options);
}

// ------------------------------------------------------------------ checks

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Digest(const StatResult& r) {
  uint64_t h = Fnv(Fnv(0xcbf29ce484222325ULL, r.first_chunk), r.last_chunk);
  for (uint64_t f : r.stats.fields()) h = Fnv(h, f);
  return h;
}

/// Oracle: one stat result against the reference aggregate.
bool Matches(const StatResult& r, const StreamSpec& s, uint64_t first,
             uint64_t last) {
  return r.first_chunk == first && r.last_chunk == last &&
         r.stats.fields() == s.pool->Range(first, last);
}

/// Oracle: a series over [first, last) in `gran`-chunk windows.
bool SeriesMatches(const std::vector<StatResult>& series, const StreamSpec& s,
                   uint64_t first, uint64_t last, uint64_t gran) {
  if (series.size() != (last - first + gran - 1) / gran) return false;
  for (size_t i = 0; i < series.size(); ++i) {
    uint64_t w = first + i * gran;
    if (!Matches(series[i], s, w, std::min(w + gran, last))) return false;
  }
  return true;
}

uint64_t SeriesDigest(const std::vector<StatResult>& series) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& r : series) h = Fnv(h, Digest(r));
  return h;
}

/// Counts every checked op against the pass and keeps the digests of the
/// deterministic ones.
class Oracle {
 public:
  Oracle(PassOutput& out, size_t round) : out_(out), round_(round) {
    Phase("setup");
  }

  /// Results recorded from now on belong to phase `name` of this round.
  void Phase(const char* name) {
    results_ = &out_.results[std::to_string(round_) + "/" + name];
  }

  void Count(bool ok, uint64_t ops = 1) {
    out_.attempted += ops;
    if (!ok) out_.failed += ops;
  }
  void Record(bool ok, uint64_t digest) {
    Count(ok);
    results_->push_back(ok ? digest : 0);
  }

  bool Stat(const Result<StatResult>& r, const StreamSpec& s, uint64_t first,
            uint64_t last, bool deterministic = true) {
    bool ok = r.ok() && Matches(*r, s, first, last);
    if (!ok) Report("stat", r.status(), first, last);
    if (deterministic) {
      Record(ok, ok ? Digest(*r) : 0);
    } else {
      Count(ok);
    }
    return ok;
  }

  bool Series(const Result<std::vector<StatResult>>& r, const StreamSpec& s,
              uint64_t first, uint64_t last, uint64_t gran,
              bool deterministic = true) {
    bool ok = r.ok() && SeriesMatches(*r, s, first, last, gran);
    if (!ok) Report("series", r.status(), first, last);
    if (deterministic) {
      Record(ok, ok ? SeriesDigest(*r) : 0);
    } else {
      Count(ok);
    }
    return ok;
  }

 private:
  void Report(const char* what, const Status& status, uint64_t first,
              uint64_t last) {
    if (reported_++ < 5) {
      std::fprintf(stderr, "tcbench: %s [%llu, %llu) failed: %s\n", what,
                   static_cast<unsigned long long>(first),
                   static_cast<unsigned long long>(last),
                   status.ok() ? "wrong result" : status.ToString().c_str());
    }
  }

  PassOutput& out_;
  size_t round_;
  std::vector<uint64_t>* results_ = nullptr;
  inline static std::atomic<int> reported_{0};
};

// --------------------------------------------------------- query wrappers

// The query ops of the workloads, timed from call to decrypted result. In a
// traced pass the client self time goes to `self_us`.

template <typename Call>
auto Timed(const Tracer* tracer, std::vector<double>* self_us,
           std::vector<QuerySample>* samples, Call&& call) {
  ClientSpan span(tracer);
  int64_t start = NowNs();
  auto r = call();
  int64_t done = NowNs();
  double self = span.End();
  if (samples) {
    samples->push_back({done, static_cast<double>(done - start) / 1e3});
  }
  if (tracer) self_us->push_back(self);
  return r;
}

Result<StatResult> TimedStat(OwnerClient& owner, const StreamSpec& s,
                             uint64_t first, uint64_t last,
                             const Tracer* tracer,
                             std::vector<double>* self_us,
                             std::vector<QuerySample>* samples) {
  return Timed(tracer, self_us, samples, [&] {
    return owner.GetStatRange(s.uuid, s.Chunks(first, last));
  });
}

/// `client` is an owner, or a consumer answering from its grants.
template <typename Client>
Result<std::vector<StatResult>> TimedSeries(Client& client,
                                            const StreamSpec& s,
                                            uint64_t first, uint64_t last,
                                            uint64_t gran,
                                            const Tracer* tracer,
                                            std::vector<double>* self_us,
                                            std::vector<QuerySample>* samples) {
  return Timed(tracer, self_us, samples, [&] {
    return client.GetStatSeries(s.uuid, s.Chunks(first, last), gran);
  });
}

// ---------------------------------------------------------------- grants

struct Readers {
  std::unique_ptr<ConsumerClient> full;  // tree-token grant, resolution 1
  std::unique_ptr<ConsumerClient> res;   // key-regression grant
};

/// Grant chunks [0, horizon) of each stream in `full` at full resolution
/// and of each in `res` at `resolution`, to two principals reached over
/// their own connections.
Status IssueGrants(OwnerClient& owner, const std::vector<StreamSpec>& full,
                   const std::vector<StreamSpec>& res, uint64_t horizon,
                   uint64_t resolution,
                   std::shared_ptr<tc::net::Transport> full_conn,
                   std::shared_ptr<tc::net::Transport> res_conn,
                   Readers& readers) {
  tc::client::Principal full_reader{"full-reader",
                                    tc::crypto::GenerateBoxKeyPair()};
  tc::client::Principal res_reader{"res-reader",
                                   tc::crypto::GenerateBoxKeyPair()};
  for (const auto& s : full) {
    TC_RETURN_IF_ERROR(owner.GrantAccess(s.uuid, full_reader.id,
                                         full_reader.keys.public_key,
                                         s.Chunks(0, horizon), 1));
  }
  for (const auto& s : res) {
    TC_RETURN_IF_ERROR(owner.GrantAccess(s.uuid, res_reader.id,
                                         res_reader.keys.public_key,
                                         s.Chunks(0, horizon), resolution));
  }
  readers.full = std::make_unique<ConsumerClient>(std::move(full_conn),
                                                  std::move(full_reader));
  readers.res = std::make_unique<ConsumerClient>(std::move(res_conn),
                                                 std::move(res_reader));
  TC_ASSIGN_OR_RETURN(int n_full, readers.full->FetchGrants());
  TC_ASSIGN_OR_RETURN(int n_res, readers.res->FetchGrants());
  if (n_full != static_cast<int>(full.size()) ||
      n_res != static_cast<int>(res.size())) {
    return tc::Internal("consumers did not receive their grants");
  }
  return Status::Ok();
}

// ---------------------------------------------------------- layer probes

struct ProbeInput {
  tc::server::ServerEngine* engine = nullptr;
  std::shared_ptr<tc::net::Transport> transport;
  OwnerClient* owner = nullptr;
  const StreamSpec* stream = nullptr;  // probed stream (HEAC)
  uint64_t probe_uuid = 0;             // fresh uuid for the upload probe
  uint64_t upload_batch = 1;
  // Chunk ranges of the workload's queries on `stream`.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  // Consumer window boundaries on `stream` (multiples of the resolution).
  std::vector<uint64_t> boundaries;
  Readers* readers = nullptr;
};

template <typename F>
double TimeUs(F&& f) {
  int64_t start = NowNs();
  f();
  return static_cast<double>(NowNs() - start) / 1e3;
}

/// Direct calls into single layers on the workload's own inputs: index
/// replay, key derivation, HEAC, chunk sealing, and the owner's ingest
/// pipeline with uploads acknowledged locally.
Status RunLayerProbes(const ProbeInput& in, PassOutput& out) {
  auto& layers = out.layers;
  const StreamSpec& s = *in.stream;
  const SeriesPool& pool = *s.pool;
  const size_t sample = std::min<size_t>(in.ranges.size(), 2000);

  // index: replay the run's ranges through the stream's AggTree.
  TC_ASSIGN_OR_RETURN(const tc::index::AggTree* tree,
                      in.engine->GetIndexForTesting(s.uuid));
  std::vector<double> query_us;
  double nodes = 0, adds = 0;
  for (size_t i = 0; i < sample; ++i) {
    tc::index::QueryStats stats;
    Result<Bytes> blob = Bytes{};
    query_us.push_back(TimeUs([&] {
      blob = tree->Query(in.ranges[i].first, in.ranges[i].second, stats);
    }));
    TC_RETURN_IF_ERROR(blob.status());
    nodes += static_cast<double>(stats.nodes_fetched);
    adds += static_cast<double>(stats.digest_adds);
  }
  layers["index.query_us"] = Median(query_us);
  layers["index.nodes_per_query"] = nodes / static_cast<double>(sample);
  layers["index.digest_adds_per_query"] = adds / static_cast<double>(sample);
  layers["index.bytes_per_chunk"] = static_cast<double>(tree->IndexBytes()) /
                               static_cast<double>(tree->num_chunks());

  // crypto: GGM leaves at the query endpoints, as the owner derives them.
  TC_ASSIGN_OR_RETURN(tc::client::StreamKeys * keys, in.owner->KeysFor(s.uuid));
  std::vector<double> leaf_us;
  for (size_t i = 0; i < sample; ++i) {
    for (uint64_t leaf : {in.ranges[i].first, in.ranges[i].second}) {
      leaf_us.push_back(TimeUs([&] { (void)keys->Leaf(leaf); }));
    }
  }
  layers["crypto.ggm_leaf_us"] = Median(leaf_us);

  // crypto: HEAC encrypt/decrypt of the stream's chunk digests.
  auto heac = tc::index::MakeHeacCipher(s.config.schema.num_fields(),
                                        keys->shared_tree());
  std::vector<double> enc_us, dec_us;
  for (size_t i = 0; i < sample; ++i) {
    uint64_t c = in.ranges[i].first;
    const auto& fields = pool.digests[c % pool.size()];
    Result<Bytes> blob = Bytes{};
    enc_us.push_back(TimeUs([&] { blob = heac->Encrypt(fields, c); }));
    TC_RETURN_IF_ERROR(blob.status());
    Result<std::vector<uint64_t>> plain = std::vector<uint64_t>{};
    dec_us.push_back(TimeUs([&] { plain = heac->Decrypt(*blob, c, c + 1); }));
    if (!plain.ok() || *plain != fields) {
      return tc::Internal("HEAC probe round trip mismatch");
    }
  }
  layers["crypto.heac_encrypt_us"] = Median(enc_us);
  layers["crypto.heac_decrypt_us"] = Median(dec_us);

  // crypto: consumer boundary leaves, as ConsumerClient derives them — a
  // token set per derivation, and a key-regression view plus envelope.
  const tc::client::AccessGrant* token_grant = nullptr;
  const tc::client::AccessGrant* res_grant = nullptr;
  for (const auto& g : in.readers->full->grants()) {
    if (g.stream_uuid == s.uuid) token_grant = &g;
  }
  for (const auto& g : in.readers->res->grants()) {
    if (g.stream_uuid == s.uuid) res_grant = &g;
  }
  if (!token_grant || !res_grant || in.boundaries.empty()) {
    return tc::Internal("probed stream has no consumer grants");
  }
  std::vector<double> token_us, env_us;
  for (uint64_t b : in.boundaries) {
    Result<tc::crypto::Key128> leaf = tc::crypto::Key128{};
    token_us.push_back(TimeUs([&] {
      auto tokens = token_grant->MakeTokenSet();
      if (tokens.ok()) leaf = tokens->DeriveLeaf(b);
    }));
    TC_RETURN_IF_ERROR(leaf.status());

    uint64_t window = b / res_grant->resolution_chunks;
    tc::net::GetEnvelopesRequest req{s.uuid, res_grant->resolution_chunks,
                                     window, window};
    TC_ASSIGN_OR_RETURN(Bytes payload, in.transport->Call(
                                           MessageType::kGetEnvelopes,
                                           req.Encode()));
    TC_ASSIGN_OR_RETURN(auto envs,
                        tc::net::GetEnvelopesResponse::Decode(payload));
    if (envs.envelopes.size() != 1) return tc::Internal("missing envelope");
    Result<tc::crypto::Key128> opened = tc::crypto::Key128{};
    env_us.push_back(TimeUs([&] {
      auto view = res_grant->MakeResolutionView();
      if (!view.ok()) {
        opened = view.status();
        return;
      }
      auto res_key = view->DeriveKey(window);
      if (!res_key.ok()) {
        opened = res_key.status();
        return;
      }
      opened = tc::client::StreamKeys::OpenEnvelope(*res_key,
                                                    envs.envelopes[0]);
    }));
    TC_RETURN_IF_ERROR(opened.status());
    if (*opened != *leaf) return tc::Internal("envelope leaf mismatch");
  }
  layers["crypto.token_leaf_us"] = Median(token_us);
  layers["crypto.envelope_leaf_us"] = Median(env_us);

  // chunk: digest + payload sealing per chunk of the workload's inputs.
  std::vector<double> seal_us;
  double sealed_bytes = 0, records = 0;
  for (uint64_t c = 0; c < std::min<uint64_t>(pool.size(), 512); ++c) {
    tc::chunk::ChunkBuilder builder(
        c, s.Chunks(c, c + 1),
        static_cast<tc::chunk::Compression>(s.config.compression));
    for (const auto& p : pool.chunks[c]) {
      TC_RETURN_IF_ERROR(builder.Add(
          {s.config.t0 + static_cast<int64_t>(c) * s.config.delta_ms +
               p.timestamp_ms,
           p.value}));
    }
    tc::crypto::Key128 key = keys->PayloadKey(c);
    Result<Bytes> sealed = Bytes{};
    seal_us.push_back(TimeUs([&] {
      auto digest = builder.ComputeDigest(s.config.schema);
      (void)digest;
      sealed = builder.SealPayload(key);
    }));
    TC_RETURN_IF_ERROR(sealed.status());
    sealed_bytes += static_cast<double>(sealed->size());
    records += static_cast<double>(builder.num_points());
  }
  layers["chunk.seal_us"] = Median(seal_us);
  layers["chunk.payload_bytes_per_record"] = sealed_bytes / records;

  // client: the owner's per-record ingest cost with uploads acknowledged
  // locally (no wire, no server); median of a few fresh probe streams.
  std::vector<double> record_us;
  const uint64_t chunks =
      std::max<uint64_t>(pool.size(), 20'000 / pool.records_per_chunk());
  for (uint64_t rep = 0; rep < 5; ++rep) {
    StreamSpec probe = s;
    probe.uuid = in.probe_uuid + rep;
    tc::net::CreateStreamRequest req{probe.uuid, probe.config};
    TC_RETURN_IF_ERROR(
        in.transport->Call(MessageType::kCreateStream, req.Encode()).status());
    auto owner = MakeOwner(std::make_shared<AckUploadsTransport>(in.transport),
                           in.upload_batch);
    TC_RETURN_IF_ERROR(owner->AttachStream(probe.uuid, probe.master));
    Status status;
    double us = TimeUs([&] {
      for (uint64_t c = 0; c < chunks && status.ok(); ++c) {
        status = InsertChunk(*owner, probe, c);
      }
      if (status.ok()) status = owner->Flush(probe.uuid);
    });
    TC_RETURN_IF_ERROR(status);
    record_us.push_back(
        us / static_cast<double>(chunks * pool.records_per_chunk()));
  }
  layers["client.self_us.insert_record"] = Median(record_us);
  return Status::Ok();
}

// -------------------------------------------------------------- recovery

/// Time from reopening the log to the first correct full-range
/// GetStatRange on a fresh engine, then check every stream's full range.
Status Recover(const std::string& path, size_t cache_bytes,
               const std::vector<StreamSpec>& specs, uint64_t chunks,
               Oracle& oracle, PassOutput& out) {
  oracle.Phase("recover");
  int64_t start = NowNs();
  TC_ASSIGN_OR_RETURN(auto log, tc::store::LogKvStore::Open(path));
  out.open_s.push_back(SecondsSince(start));
  auto engine = std::make_shared<tc::server::ServerEngine>(
      std::shared_ptr<tc::store::KvStore>(std::move(log)),
      EngineOptions(cache_bytes));
  auto transport = std::make_shared<tc::net::InProcTransport>(engine);
  OwnerClient owner(transport);
  for (size_t i = 0; i < specs.size(); ++i) {
    const StreamSpec& s = specs[i];
    Status attached = owner.AttachStream(s.uuid, s.master);
    auto r = attached.ok()
                 ? owner.GetStatRange(s.uuid, s.Chunks(0, chunks))
                 : Result<StatResult>(attached);
    if (i == 0) out.recover_s.push_back(SecondsSince(start));
    oracle.Stat(r, s, 0, chunks);
  }
  return Status::Ok();
}

struct CacheCounters {
  uint64_t hits, misses;
  static CacheCounters Now() {
    return {tc::metrics::GetCounter("tc_index_cache_hits_total").value(),
            tc::metrics::GetCounter("tc_index_cache_misses_total").value()};
  }
};

/// Timed-phase bracket: tracer phase flag and index cache counters.
class TimedPhase {
 public:
  TimedPhase(const PassConfig& cfg, PassOutput& out)
      : cfg_(cfg), out_(out), start_(CacheCounters::Now()) {
    if (cfg_.tracer) cfg_.tracer->SetTimed(true);
  }
  ~TimedPhase() {
    if (cfg_.tracer) cfg_.tracer->SetTimed(false);
    CacheCounters end = CacheCounters::Now();
    out_.cache_hits += end.hits - start_.hits;
    out_.cache_misses += end.misses - start_.misses;
  }

 private:
  const PassConfig& cfg_;
  PassOutput& out_;
  CacheCounters start_;
};

/// Run context: index size of one stream against the node-cache budget.
void RecordIndexBytes(tc::server::ServerEngine& engine, const StreamSpec& s,
                      PassOutput& out) {
  auto tree = engine.GetIndexForTesting(s.uuid);
  if (tree.ok()) {
    out.context["index_bytes_per_stream"] =
        std::to_string((*tree)->IndexBytes());
  }
}

std::string LogPath(const PassConfig& cfg, const char* name) {
  return cfg.dir + "/" + name + (cfg.tracer ? "-traced" : "") +
         (cfg.plain ? "-plain" : "") + ".log";
}

/// First of a few consecutive fixed-width uuids no stream uses (the
/// upload probe's streams).
uint64_t ProbeUuid(const std::vector<StreamSpec>& specs) {
  uint64_t uuid = 9'000'000'000'000'000'000ULL;
  while (std::any_of(specs.begin(), specs.end(), [&](const StreamSpec& s) {
    return s.uuid >= uuid && s.uuid < uuid + 8;
  })) {
    uuid += 8;
  }
  return uuid;
}

/// Rounds until the timed phases add up to `seconds` (at least
/// `min_rounds`, at most `max_rounds`; one in the baseline arm).
template <typename RoundFn>
Status RunRounds(const PassConfig& cfg, size_t min_rounds, size_t max_rounds,
                 RoundFn&& round) {
  double timed = 0;
  for (size_t r = 0;; ++r) {
    if (cfg.single_round && r == 1) break;
    if (r >= max_rounds) break;
    if (r >= min_rounds && timed >= cfg.seconds) break;
    double round_timed = 0;
    TC_RETURN_IF_ERROR(round(r, round_timed));
    timed += round_timed;
  }
  return Status::Ok();
}

// ================================================================= ingest
//
// One producer writes mhealth vitals: 12 HEAC streams, 50 Hz, Δ = 10 s
// (500 records per chunk), batched and pipelined uploads. Each round
// ingests a fixed amount, then verifies with random-range GetStatRange
// queries (the query_* metrics of this workload), series, and the two
// consumers, then stops and recovers.

class IngestWorkload final : public Workload {
 public:
  static constexpr uint32_t kStreams = 12;
  static constexpr uint64_t kChunks = 500;      // per stream per round
  static constexpr uint64_t kAckBlock = 100;    // chunk rows per flush
  static constexpr uint64_t kPoolChunks = 50;
  static constexpr uint64_t kBatch = 8;
  static constexpr size_t kVerifyQueries = 2000;
  // Resolution grants must align to the resolution.
  static constexpr uint64_t kGrantChunks =
      kChunks / kSeriesGranularity * kSeriesGranularity;

  MessageType query_type() const override {
    return MessageType::kGetStatRange;
  }

  Status RunPass(const PassConfig& cfg, PassOutput& out) override {
    auto schema = tc::workload::MHealthGenerator::VitalsSchema();
    tc::workload::MHealthGenerator gen({kStreams, 50.0, 0, cfg.seed});
    std::vector<SeriesPool> pools(kStreams);
    for (uint32_t m = 0; m < kStreams; ++m) {
      for (uint64_t c = 0; c < kPoolChunks; ++c) {
        auto points = gen.Batch(m, 500);
        for (auto& p : points) {
          p.timestamp_ms -= static_cast<int64_t>(c) * 10'000;
        }
        pools[m].chunks.push_back(std::move(points));
      }
      pools[m].Finish(schema);
    }
    auto specs = MakeSpecs(
        cfg.seed, kStreams,
        BaseConfig("mhealth", 10'000, schema, cfg.plain), pools);

    // Verification ranges, fixed per seed (same in every round).
    tc::crypto::DeterministicRng rng(cfg.seed ^ 0x1e57);
    std::vector<std::pair<size_t, std::pair<uint64_t, uint64_t>>> queries;
    for (size_t i = 0; i < kVerifyQueries; ++i) {
      uint64_t a = rng.NextBelow(kChunks + 1), b = a;
      while (b == a) b = rng.NextBelow(kChunks + 1);
      queries.push_back({rng.NextBelow(kStreams),
                         {std::min(a, b), std::max(a, b)}});
    }

    out.context["streams"] = std::to_string(kStreams);
    out.context["records_per_chunk"] = "500";
    out.context["chunks_per_round"] = std::to_string(kStreams * kChunks);
    out.context["client_threads"] = "1";
    out.context["connections"] = "3 (producer + 2 consumers)";
    out.context["index_cache_budget_bytes"] =
        std::to_string(kDefaultCacheBytes);

    const std::string path = LogPath(cfg, "ingest");
    return RunRounds(cfg, 3, 60, [&](size_t round, double& timed) {
      Oracle oracle(out, round);
      std::filesystem::remove(path);
      int64_t setup_start = NowNs();
      TC_ASSIGN_OR_RETURN(auto stack,
                          Stack::Start(path, kDefaultCacheBytes, cfg.tracer));
      TC_ASSIGN_OR_RETURN(auto conn, stack->Connect());
      auto owner = MakeOwner(conn, kBatch);
      TC_RETURN_IF_ERROR(CreateStreams(*conn, *owner, specs));
      Readers readers;
      if (!cfg.plain) {
        TC_ASSIGN_OR_RETURN(auto c1, stack->Connect());
        TC_ASSIGN_OR_RETURN(auto c2, stack->Connect());
        TC_RETURN_IF_ERROR(IssueGrants(*owner, {specs[0]}, {specs[0]},
                                       kGrantChunks, kSeriesGranularity, c1,
                                       c2, readers));
      }
      out.setup_s.push_back(SecondsSince(setup_start));

      // Timed: ingest every stream's chunks, interleaved chunk by chunk.
      // Every kAckBlock chunk rows all streams flush, so each block ends
      // acknowledged and is one exact ingest-rate sample.
      uint64_t log_before = stack->LogBytes();
      {
        TimedPhase phase(cfg, out);
        int64_t start = NowNs();
        int64_t block_start = start;
        Status status;
        for (uint64_t c = 0; c < kChunks && status.ok(); ++c) {
          for (const auto& s : specs) {
            status = InsertChunk(*owner, s, c);
            if (!status.ok()) break;
          }
          if ((c + 1) % kAckBlock != 0) continue;
          for (const auto& s : specs) {
            if (status.ok()) status = owner->Flush(s.uuid);
          }
          int64_t now = NowNs();
          out.ingest_rate.push_back(kStreams * kAckBlock * 500 * 1e9 /
                                    static_cast<double>(now - block_start));
          block_start = now;
        }
        double secs = SecondsSince(start);
        oracle.Count(status.ok(), kStreams * kChunks);
        if (!status.ok()) {
          std::fprintf(stderr, "tcbench: ingest failed: %s\n",
                       status.ToString().c_str());
          return status;
        }
        timed = secs;
        out.timed_ops += kStreams * kChunks;
      }
      out.uploaded_chunks += kStreams * kChunks;
      out.log_growth_bytes += stack->LogBytes() - log_before;
      out.log_chunks += kStreams * kChunks;

      oracle.Phase("verify");
      // Verify: random ranges (query latency of this workload), a series
      // per stream, and the consumers' latest window.
      std::vector<QuerySample> latency;
      for (const auto& [stream, range] : queries) {
        auto r = TimedStat(*owner, specs[stream], range.first, range.second,
                           cfg.tracer, &out.client_self_us["get_stat_range"],
                           &latency);
        oracle.Stat(r, specs[stream], range.first, range.second);
      }
      out.AddRoundQueries(std::move(latency));
      for (const auto& s : specs) {
        auto r = TimedSeries(*owner, s, 0, kChunks, kSeriesGranularity,
                             cfg.tracer, &out.client_self_us["get_stat_series"],
                             nullptr);
        oracle.Series(r, s, 0, kChunks, kSeriesGranularity);
      }
      uint64_t win_end = kGrantChunks;
      uint64_t win_start = win_end - kSeriesWindowChunks;
      if (!cfg.plain) {
        for (ConsumerClient* reader : {readers.full.get(), readers.res.get()}) {
          auto r = TimedSeries(*reader, specs[0], win_start, win_end,
                               kSeriesGranularity, cfg.tracer,
                               &out.client_self_us["get_stat_series"], nullptr);
          oracle.Series(r, specs[0], win_start, win_end, kSeriesGranularity);
        }
      }

      if (cfg.tracer && round == 0) {
        ProbeInput in;
        in.engine = &stack->engine();
        in.transport = conn;
        in.owner = owner.get();
        in.stream = &specs[0];
        in.probe_uuid = ProbeUuid(specs);
        in.upload_batch = kBatch;
        for (const auto& [stream, range] : queries) in.ranges.push_back(range);
        for (uint64_t b = win_start; b <= win_end; b += kSeriesGranularity) {
          in.boundaries.push_back(b);
        }
        in.readers = &readers;
        TC_RETURN_IF_ERROR(RunLayerProbes(in, out));
      }
      RecordIndexBytes(stack->engine(), specs[0], out);

      readers = {};
      conn.reset();
      owner.reset();
      stack->Stop();
      TC_RETURN_IF_ERROR(
          Recover(path, kDefaultCacheBytes, specs, kChunks, oracle, out));
      std::filesystem::remove(path);
      return Status::Ok();
    });
  }
};

// ================================================================== query
//
// One owner thread, one query in flight: GetStatRange with uniformly
// random endpoints over one prefilled HEAC vitals stream (Δ = 200 ms, 10
// records per chunk) whose index is several times the 1 MB node cache.
// Nothing is written in the timed phase; this workload's ingest metrics
// come from the prefill.

class QueryWorkload final : public Workload {
 public:
  static constexpr uint64_t kChunks = 18'000;  // ~2.7x the 1 MB cache
  static constexpr uint64_t kAckBlock = 2'000;
  static constexpr uint64_t kPoolChunks = 2'000;
  static constexpr uint64_t kBatch = 64;
  static constexpr uint64_t kGrantChunks = 3'600;
  static constexpr uint64_t kResolution = 60;
  static constexpr size_t kRounds = 12;
  static constexpr size_t kRanges = 1 << 18;
  static constexpr size_t kWarmup = 500;

  MessageType query_type() const override {
    return MessageType::kGetStatRange;
  }

  Status RunPass(const PassConfig& cfg, PassOutput& out) override {
    auto schema = tc::workload::MHealthGenerator::VitalsSchema();
    tc::workload::MHealthGenerator gen({1, 50.0, 0, cfg.seed});
    std::vector<SeriesPool> pools(1);
    for (uint64_t c = 0; c < kPoolChunks; ++c) {
      auto points = gen.Batch(0, 10);
      for (auto& p : points) p.timestamp_ms -= static_cast<int64_t>(c) * 200;
      pools[0].chunks.push_back(std::move(points));
    }
    pools[0].Finish(schema);
    auto specs =
        MakeSpecs(cfg.seed, 1, BaseConfig("vitals", 200, schema, cfg.plain),
                  pools);
    const StreamSpec& s = specs[0];

    tc::crypto::DeterministicRng rng(cfg.seed ^ 0x9e71);
    std::vector<std::pair<uint64_t, uint64_t>> ranges(kRanges);
    for (auto& range : ranges) {
      uint64_t a = rng.NextBelow(kChunks + 1), b = a;
      while (b == a) b = rng.NextBelow(kChunks + 1);
      range = {std::min(a, b), std::max(a, b)};
    }

    out.context["streams"] = "1";
    out.context["records_per_chunk"] = "10";
    out.context["chunks_per_round"] = std::to_string(kChunks);
    out.context["client_threads"] = "1 (1 query in flight)";
    out.context["connections"] = "3 (owner + 2 consumers)";
    out.context["index_cache_budget_bytes"] = std::to_string(kQueryCacheBytes);

    const std::string path = LogPath(cfg, "query");
    const size_t rounds = cfg.single_round ? 1 : kRounds;
    const double round_seconds = cfg.seconds / static_cast<double>(rounds);
    return RunRounds(cfg, rounds, rounds,
                     [&](size_t round, double& timed) {
      Oracle oracle(out, round);
      std::filesystem::remove(path);
      int64_t setup_start = NowNs();
      TC_ASSIGN_OR_RETURN(auto stack,
                          Stack::Start(path, kQueryCacheBytes, cfg.tracer));
      TC_ASSIGN_OR_RETURN(auto conn, stack->Connect());
      auto owner = MakeOwner(conn, kBatch);
      TC_RETURN_IF_ERROR(CreateStreams(*conn, *owner, specs));

      // Prefill (the ingest metrics of this workload), flushed every
      // kAckBlock chunks so each block is one exact ingest-rate sample.
      uint64_t log_before = stack->LogBytes();
      int64_t block_start = NowNs();
      Status status;
      for (uint64_t c = 0; c < kChunks && status.ok(); ++c) {
        status = InsertChunk(*owner, s, c);
        if (!status.ok() || (c + 1) % kAckBlock != 0) continue;
        status = owner->Flush(s.uuid);
        int64_t now = NowNs();
        out.ingest_rate.push_back(kAckBlock * 10 * 1e9 /
                                  static_cast<double>(now - block_start));
        block_start = now;
      }
      oracle.Count(status.ok(), kChunks);
      TC_RETURN_IF_ERROR(status);
      out.uploaded_chunks += kChunks;
      out.log_growth_bytes += stack->LogBytes() - log_before;
      out.log_chunks += kChunks;

      Readers readers;
      if (!cfg.plain) {
        TC_ASSIGN_OR_RETURN(auto c1, stack->Connect());
        TC_ASSIGN_OR_RETURN(auto c2, stack->Connect());
        TC_RETURN_IF_ERROR(IssueGrants(*owner, specs, specs, kGrantChunks,
                                       kResolution, c1, c2, readers));
      }
      // Warm-up: let the node cache and the key iterator settle.
      for (size_t i = 0; i < kWarmup; ++i) {
        const auto& [first, last] = ranges[kRanges - 1 - i];
        auto r = owner->GetStatRange(s.uuid, s.Chunks(first, last));
        oracle.Stat(r, s, first, last, false);
      }
      out.setup_s.push_back(SecondsSince(setup_start));

      // Timed: closed-loop random-range stat queries.
      oracle.Phase("timed");
      {
        TimedPhase phase(cfg, out);
        int64_t start = NowNs();
        const int64_t deadline =
            start + static_cast<int64_t>(round_seconds * 1e9);
        size_t n = 0;
        std::vector<QuerySample> latency;
        while (NowNs() < deadline) {
          const auto& [first, last] = ranges[n % kRanges];
          auto r = TimedStat(*owner, s, first, last, cfg.tracer,
                             &out.client_self_us["get_stat_range"], &latency);
          oracle.Stat(r, s, first, last);
          ++n;
        }
        timed = SecondsSince(start);
        out.AddRoundQueries(std::move(latency));
        out.timed_ops += n;
      }

      oracle.Phase("verify");
      // Verify: series over aligned ranges, by the owner and both readers.
      for (uint64_t w = 0; w < 4; ++w) {
        uint64_t first = w * 4'200, last = first + 600;
        auto r = TimedSeries(*owner, s, first, last, kResolution, cfg.tracer,
                             &out.client_self_us["get_stat_series"], nullptr);
        oracle.Series(r, s, first, last, kResolution);
      }
      if (!cfg.plain) {
        for (ConsumerClient* reader : {readers.full.get(), readers.res.get()}) {
          auto r = TimedSeries(*reader, s, 0, 600, kResolution, cfg.tracer,
                               &out.client_self_us["get_stat_series"], nullptr);
          oracle.Series(r, s, 0, 600, kResolution);
        }
      }

      if (cfg.tracer && round == 0) {
        ProbeInput in;
        in.engine = &stack->engine();
        in.transport = conn;
        in.owner = owner.get();
        in.stream = &s;
        in.probe_uuid = ProbeUuid(specs);
        in.upload_batch = kBatch;
        in.ranges.assign(ranges.begin(), ranges.begin() + 2000);
        for (uint64_t b = 0; b <= 600; b += kResolution) {
          in.boundaries.push_back(b);
        }
        in.readers = &readers;
        TC_RETURN_IF_ERROR(RunLayerProbes(in, out));
      }
      RecordIndexBytes(stack->engine(), s, out);

      readers = {};
      conn.reset();
      owner.reset();
      stack->Stop();
      TC_RETURN_IF_ERROR(
          Recover(path, kQueryCacheBytes, specs, kChunks, oracle, out));
      std::filesystem::remove(path);
      return Status::Ok();
    });
  }
};

// ============================================================== dashboard
//
// One producer ingests DevOps CPU streams (6 records per chunk, Δ = 1 min)
// into a few hundred streams while two consumers chart the latest hour of
// a granted stream with GetStatSeries: one through a full-resolution
// tree-token grant, one through a 6-chunk key-regression grant. The
// producer publishes its acknowledged watermark after every block, so
// consumers only ask for acknowledged chunks.

class DashboardWorkload final : public Workload {
 public:
  static constexpr uint32_t kHosts = 20;
  static constexpr uint32_t kMetrics = 10;
  static constexpr uint32_t kStreams = kHosts * kMetrics;
  static constexpr uint64_t kPrefill = 60;  // chunks per stream at set-up
  static constexpr uint64_t kChunks = 180;  // chunks per stream per round
  static constexpr uint64_t kBlock = 12;    // chunks per upload batch
  static constexpr uint64_t kPoolChunks = 24;
  static constexpr size_t kFullGrants = 8;
  static constexpr size_t kResGrants = 4;

  MessageType query_type() const override {
    return MessageType::kGetStatSeries;
  }

  Status RunPass(const PassConfig& cfg, PassOutput& out) override {
    auto schema = tc::workload::DevOpsGenerator::CpuSchema();
    tc::workload::DevOpsGenerator gen(
        {kHosts, kMetrics, 10'000, 0, cfg.seed});
    std::vector<SeriesPool> pools(kStreams);
    for (uint32_t h = 0; h < kHosts; ++h) {
      for (uint32_t m = 0; m < kMetrics; ++m) {
        SeriesPool& pool = pools[h * kMetrics + m];
        for (uint64_t c = 0; c < kPoolChunks; ++c) {
          auto points = gen.Batch(h, m, 6);
          for (auto& p : points) {
            p.timestamp_ms -= static_cast<int64_t>(c) * 60'000;
          }
          pool.chunks.push_back(std::move(points));
        }
        pool.Finish(schema);
      }
    }
    auto specs = MakeSpecs(cfg.seed, kStreams,
                           BaseConfig("devops", 60'000, schema, cfg.plain),
                           pools);
    const uint64_t horizon = kPrefill + kChunks;
    std::vector<StreamSpec> full(specs.begin(), specs.begin() + kFullGrants);
    std::vector<StreamSpec> res(specs.begin(), specs.begin() + kResGrants);

    out.context["streams"] = std::to_string(kStreams);
    out.context["records_per_chunk"] = "6";
    out.context["chunks_per_round"] =
        std::to_string(kStreams * (kPrefill + kChunks));
    out.context["client_threads"] = "3 (producer + 2 consumers)";
    out.context["connections"] = "3";
    out.context["index_cache_budget_bytes"] =
        std::to_string(kDefaultCacheBytes);

    const std::string path = LogPath(cfg, "dashboard");
    return RunRounds(cfg, 3, 20, [&](size_t round, double& timed) {
      Oracle oracle(out, round);
      std::filesystem::remove(path);
      int64_t setup_start = NowNs();
      TC_ASSIGN_OR_RETURN(auto stack,
                          Stack::Start(path, kDefaultCacheBytes, cfg.tracer));
      TC_ASSIGN_OR_RETURN(auto conn, stack->Connect());
      auto owner = MakeOwner(conn, kBlock);
      TC_RETURN_IF_ERROR(CreateStreams(*conn, *owner, specs));
      TC_ASSIGN_OR_RETURN(auto c1, stack->Connect());
      TC_ASSIGN_OR_RETURN(auto c2, stack->Connect());
      Readers readers;
      // The plaintext arm has no grants: its readers are owner clients.
      std::vector<std::unique_ptr<OwnerClient>> plain_readers;
      if (cfg.plain) {
        for (auto& c : {c1, c2}) {
          plain_readers.push_back(MakeOwner(c, kBlock));
          for (const auto& s : full) {
            TC_RETURN_IF_ERROR(
                plain_readers.back()->AttachStream(s.uuid, s.master));
          }
        }
      } else {
        TC_RETURN_IF_ERROR(IssueGrants(*owner, full, res, horizon,
                                       kSeriesGranularity, c1, c2, readers));
      }

      // Producer: every stream gets `kBlock` chunks, then a flush that
      // returns once the batch is acknowledged.
      auto ingest_block = [&](uint64_t first_chunk) -> Status {
        for (const auto& s : specs) {
          for (uint64_t c = first_chunk; c < first_chunk + kBlock; ++c) {
            TC_RETURN_IF_ERROR(InsertChunk(*owner, s, c));
          }
          TC_RETURN_IF_ERROR(owner->Flush(s.uuid));
        }
        return Status::Ok();
      };
      for (uint64_t c = 0; c < kPrefill; c += kBlock) {
        Status status = ingest_block(c);
        oracle.Count(status.ok(), kStreams * kBlock);
        TC_RETURN_IF_ERROR(status);
      }
      out.uploaded_chunks += kStreams * kPrefill;

      // Reader `who`: 0 holds the full-resolution grants, 1 the resolution
      // grants (in the plaintext arm both are owner clients).
      auto read_series = [&](int who, const StreamSpec& s, uint64_t start,
                             uint64_t end, std::vector<double>* self_us,
                             std::vector<QuerySample>* samples) {
        if (cfg.plain) {
          return TimedSeries(*plain_readers[who], s, start, end,
                             kSeriesGranularity, cfg.tracer, self_us, samples);
        }
        ConsumerClient& reader = who == 0 ? *readers.full : *readers.res;
        return TimedSeries(reader, s, start, end, kSeriesGranularity,
                           cfg.tracer, self_us, samples);
      };
      // Warm-up: each reader's first query caches the stream config.
      std::vector<double> warmup_self;
      for (int who = 0; who < 2; ++who) {
        uint64_t start = kPrefill - kSeriesWindowChunks;
        auto r = read_series(who, specs[0], start, kPrefill, &warmup_self,
                             nullptr);
        oracle.Series(r, specs[0], start, kPrefill, kSeriesGranularity, false);
      }
      out.setup_s.push_back(SecondsSince(setup_start));

      // Timed: producer and two consumers, concurrently.
      std::atomic<uint64_t> watermark{kPrefill};
      std::atomic<bool> done{false};
      uint64_t log_before = stack->LogBytes();
      std::vector<std::vector<QuerySample>> latency(2);
      std::vector<std::vector<double>> self(2);
      std::vector<uint64_t> attempted(2, 0), failed(2, 0);
      auto consumer = [&](int who) {
        tc::crypto::DeterministicRng pick(cfg.seed * 31 + who);
        const std::vector<StreamSpec>& granted = who == 0 ? full : res;
        while (!done.load()) {
          uint64_t end = watermark.load() / kSeriesGranularity *
                         kSeriesGranularity;
          uint64_t start = end - kSeriesWindowChunks;
          const StreamSpec& s = granted[pick.NextBelow(granted.size())];
          auto r = read_series(who, s, start, end, &self[who], &latency[who]);
          attempted[who]++;
          if (!r.ok() || !SeriesMatches(*r, s, start, end,
                                        kSeriesGranularity)) {
            if (failed[who]++ == 0) {
              std::fprintf(stderr, "tcbench: consumer %d series failed: %s\n",
                           who, r.ok() ? "wrong result"
                                       : r.status().ToString().c_str());
            }
          }
        }
      };
      {
        TimedPhase phase(cfg, out);
        std::thread t0(consumer, 0), t1(consumer, 1);
        int64_t start = NowNs();
        Status status;
        // Every block ends acknowledged, so each block is one exact
        // ingest-rate sample.
        int64_t block_start = start;
        for (uint64_t c = kPrefill; c < horizon && status.ok(); c += kBlock) {
          status = ingest_block(c);
          if (!status.ok()) break;
          watermark.store(c + kBlock);
          int64_t now = NowNs();
          out.ingest_rate.push_back(kStreams * kBlock * 6 * 1e9 /
                                    static_cast<double>(now - block_start));
          block_start = now;
        }
        double secs = SecondsSince(start);
        done.store(true);
        t0.join();
        t1.join();
        oracle.Count(status.ok(), kStreams * kChunks);
        TC_RETURN_IF_ERROR(status);
        timed = secs;
        uint64_t queries = attempted[0] + attempted[1];
        out.timed_ops += kStreams * kChunks + queries;
        std::vector<QuerySample> round_latency;
        for (int who = 0; who < 2; ++who) {
          out.attempted += attempted[who];
          out.failed += failed[who];
          round_latency.insert(round_latency.end(), latency[who].begin(),
                               latency[who].end());
          auto& sink = out.client_self_us["get_stat_series"];
          sink.insert(sink.end(), self[who].begin(), self[who].end());
        }
        out.AddRoundQueries(std::move(round_latency));
      }
      out.uploaded_chunks += kStreams * kChunks;
      out.log_growth_bytes += stack->LogBytes() - log_before;
      out.log_chunks += kStreams * kChunks;

      oracle.Phase("verify");
      // Verify: every stream's full range.
      for (const auto& s : specs) {
        auto r = TimedStat(*owner, s, 0, horizon, cfg.tracer,
                           &out.client_self_us["get_stat_range"], nullptr);
        oracle.Stat(r, s, 0, horizon);
      }

      if (cfg.tracer && round == 0) {
        ProbeInput in;
        in.engine = &stack->engine();
        in.transport = conn;
        in.owner = owner.get();
        in.stream = &specs[0];
        in.probe_uuid = ProbeUuid(specs);
        in.upload_batch = kBlock;
        for (uint64_t end = kSeriesWindowChunks; end <= horizon;
             end += kSeriesGranularity) {
          for (uint64_t b = end - kSeriesWindowChunks; b < end;
               b += kSeriesGranularity) {
            in.ranges.push_back({b, b + kSeriesGranularity});
          }
        }
        for (uint64_t b = horizon - kSeriesWindowChunks; b <= horizon;
             b += kSeriesGranularity) {
          in.boundaries.push_back(b);
        }
        in.readers = &readers;
        TC_RETURN_IF_ERROR(RunLayerProbes(in, out));
      }
      RecordIndexBytes(stack->engine(), specs[0], out);

      readers = {};
      plain_readers.clear();
      c1.reset();
      c2.reset();
      conn.reset();
      owner.reset();
      stack->Stop();
      TC_RETURN_IF_ERROR(
          Recover(path, kDefaultCacheBytes, specs, horizon, oracle, out));
      std::filesystem::remove(path);
      return Status::Ok();
    });
  }
};

}  // namespace

void PassOutput::AddRoundQueries(std::vector<QuerySample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const QuerySample& a, const QuerySample& b) {
              return a.done_ns < b.done_ns;
            });
  for (const auto& q : samples) query_us.push_back(q.us);
  // Equal blocks of at least kQueryBlock completions (one block when the
  // round has fewer).
  size_t blocks = std::max<size_t>(1, samples.size() / kQueryBlock);
  size_t per_block = samples.size() / blocks;
  for (size_t b = 0; b < blocks && per_block > 0; ++b) {
    auto first = samples.begin() + b * per_block;
    std::vector<double> us;
    int64_t start = first->done_ns - static_cast<int64_t>(first->us * 1e3);
    for (auto it = first; it != first + per_block; ++it) {
      us.push_back(it->us);
      start = std::min(start, it->done_ns - static_cast<int64_t>(it->us * 1e3));
    }
    int64_t end = (first + per_block - 1)->done_ns;
    block_p50_us.push_back(Quantile(us, 0.5));
    block_p99_us.push_back(Quantile(us, 0.99));
    block_rate.push_back(static_cast<double>(per_block) * 1e9 /
                         static_cast<double>(end - start));
  }
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "ingest") return std::make_unique<IngestWorkload>();
  if (name == "query") return std::make_unique<QueryWorkload>();
  if (name == "dashboard") return std::make_unique<DashboardWorkload>();
  return nullptr;
}

}  // namespace tcbench
