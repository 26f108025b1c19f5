// Time types for stream data: millisecond timestamps, durations, half-open
// ranges, and the mapping between wall-clock ranges and chunk indices.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace tc {

/// Milliseconds since the stream-global epoch (Unix epoch by convention).
using Timestamp = int64_t;
/// Milliseconds.
using DurationMs = int64_t;

constexpr DurationMs kMillisecond = 1;
constexpr DurationMs kSecond = 1000;
constexpr DurationMs kMinute = 60 * kSecond;
constexpr DurationMs kHour = 60 * kMinute;
constexpr DurationMs kDay = 24 * kHour;
constexpr DurationMs kWeek = 7 * kDay;

/// Half-open time interval [start, end).
struct TimeRange {
  Timestamp start = 0;
  Timestamp end = 0;

  bool empty() const { return end <= start; }
  DurationMs length() const { return end - start; }
  bool Contains(Timestamp t) const { return t >= start && t < end; }
  bool Contains(const TimeRange& other) const {
    return other.start >= start && other.end <= end;
  }
  bool Overlaps(const TimeRange& other) const {
    return start < other.end && other.start < end;
  }

  friend bool operator==(const TimeRange&, const TimeRange&) = default;

  std::string ToString() const;
};

/// Chunk interval of a rollup stream whose chunks each span
/// `granularity_chunks` chunks of interval `delta`; InvalidArgument when the
/// product does not fit a DurationMs.
inline Result<DurationMs> RollupDeltaMs(DurationMs delta,
                                        uint64_t granularity_chunks) {
  DurationMs out = 0;
  if (__builtin_mul_overflow(delta, granularity_chunks, &out)) {
    return InvalidArgument("rollup chunk interval overflows");
  }
  return out;
}

/// Maps wall-clock time to chunk indices for a stream that starts at `t0`
/// and chunks at fixed interval `delta` (the paper's Δ, §4.3). Chunk i covers
/// [t0 + i*delta, t0 + (i+1)*delta).
class ChunkClock {
 public:
  ChunkClock(Timestamp t0, DurationMs delta) : t0_(t0), delta_(delta) {}

  Timestamp t0() const { return t0_; }
  DurationMs delta() const { return delta_; }

  /// Index of the chunk containing `t`. Requires t >= t0.
  Result<uint64_t> IndexOf(Timestamp t) const {
    if (t < t0_) return OutOfRange("timestamp precedes stream start");
    return static_cast<uint64_t>((t - t0_) / delta_);
  }

  TimeRange RangeOfChunk(uint64_t index) const {
    Timestamp s = t0_ + static_cast<Timestamp>(index) * delta_;
    return {s, s + delta_};
  }

  /// Chunk index range [first, last) covering all chunks that overlap `r`,
  /// clipped to chunks fully before `now_chunks`.
  Result<std::pair<uint64_t, uint64_t>> IndexRange(const TimeRange& r) const {
    if (r.empty()) return InvalidArgument("empty time range");
    if (r.end <= t0_) return OutOfRange("range precedes stream start");
    Timestamp clamped_start = r.start < t0_ ? t0_ : r.start;
    uint64_t first = static_cast<uint64_t>((clamped_start - t0_) / delta_);
    uint64_t last = static_cast<uint64_t>((r.end - t0_ + delta_ - 1) / delta_);
    return std::make_pair(first, last);
  }

  /// True if `r` is aligned to whole chunks (starts and ends on boundaries).
  bool IsAligned(const TimeRange& r) const {
    return (r.start - t0_) % delta_ == 0 && (r.end - t0_) % delta_ == 0;
  }

 private:
  Timestamp t0_;
  DurationMs delta_;
};

}  // namespace tc
