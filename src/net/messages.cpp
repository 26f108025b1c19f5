#include "net/messages.hpp"

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace tc::net {

std::string_view CipherKindName(CipherKind kind) {
  switch (kind) {
    case CipherKind::kPlain: return "Plaintext";
    case CipherKind::kHeac: return "TimeCrypt";
    case CipherKind::kPaillier: return "Paillier";
    case CipherKind::kEcElGamal: return "EC-ElGamal";
  }
  return "?";
}

MetricsInfoResponse MetricsInfoResponse::FromRegistry() {
  MetricsInfoResponse resp;
  for (const metrics::MetricSample& s :
       metrics::MetricsRegistry::Instance().Collect()) {
    Entry e;
    e.kind = static_cast<uint8_t>(s.kind);
    e.name = s.name;
    e.labels = s.labels;
    e.value = s.value;
    e.count = s.hist.count;
    e.sum = s.hist.sum;
    e.max = s.hist.max;
    e.p50 = s.hist.p50;
    e.p95 = s.hist.p95;
    e.p99 = s.hist.p99;
    resp.entries.push_back(std::move(e));
  }
  return resp;
}

TraceInfoResponse TraceInfoResponse::FromRing(const TraceInfoRequest& req) {
  TraceInfoResponse resp;
  resp.dropped = trace::Ring().dropped();
  for (const trace::SpanRecord& r : trace::Ring().Snapshot()) {
    if (req.trace_id != 0 && r.trace_id != req.trace_id) continue;
    if (req.slow_only != 0 && !r.slow) continue;
    Span s;
    s.trace_id = r.trace_id;
    s.span_id = r.span_id;
    s.parent_span_id = r.parent_span_id;
    s.op = r.op;
    s.msg_type = r.msg_type;
    s.shard = r.shard;
    s.start_us = r.start_us;
    s.duration_us = r.duration_us;
    s.slow = r.slow ? 1 : 0;
    resp.spans.push_back(std::move(s));
  }
  return resp;
}

EventsInfoResponse EventsInfoResponse::FromJournal(
    const EventsInfoRequest& req) {
  EventsInfoResponse resp;
  resp.dropped = trace::EventJournal::Instance().dropped();
  for (trace::Event& e :
       trace::EventJournal::Instance().Snapshot(req.min_seq)) {
    Event out;
    out.seq = e.seq;
    out.wall_ms = e.wall_ms;
    out.kind = std::move(e.kind);
    out.shard = e.shard;
    out.detail = std::move(e.detail);
    resp.events.push_back(std::move(out));
  }
  return resp;
}

}  // namespace tc::net
