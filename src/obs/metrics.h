#ifndef BREP_OBS_METRICS_H_
#define BREP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// The observability core: named counters, gauges, and log-bucketed latency
/// histograms, collected into immutable snapshots for exposition.
///
/// Hot-path contract: Record()/Add() are lock-free -- a handful of relaxed
/// atomic RMWs on a cache-line-aligned stripe -- so instrumentation can sit
/// inside the query and WAL fast paths without serializing them.
/// Contributors write to per-stripe slots padded to a cache line (no false
/// sharing), and the stripes are merged only at Snapshot() time. Snapshots
/// are safe CONCURRENTLY with recording (relaxed atomics, monotone
/// counters), so a metrics poller never has to quiesce the serving threads;
/// a snapshot taken mid-storm is a consistent-enough view (each cell
/// individually atomic, cells mutually torn by at most the in-flight
/// operations).

namespace brep::obs {

/// Stripes per metric. Contributors hash (or are assigned) onto a stripe;
/// more stripes = less RMW contention, more merge work at snapshot time.
inline constexpr size_t kStripes = 8;

/// Latency histogram buckets. Bucket 0 counts samples below 1 microsecond;
/// bucket i >= 1 counts [2^(i-1), 2^i) microseconds; the last bucket also
/// absorbs anything beyond its bound (~2.3 hours), so no sample is dropped.
inline constexpr size_t kHistogramBuckets = 34;

/// Stable stripe id for the calling thread (a global creation-order
/// ticket), used by the implicit-stripe Record()/Add() overloads. Exposed
/// so call sites that record several metrics for one event can pin them to
/// one stripe explicitly.
size_t CurrentThreadStripe();

/// Immutable merged view of a LatencyHistogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum_ms = 0.0;
  double max_ms = 0.0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Upper bound (exclusive, in ms) of bucket `i`; the last bucket's bound
  /// is nominal (it also holds the overflow).
  static double BucketUpperMs(size_t i);

  /// Estimated p-th percentile (p in [0, 100]) in ms: linear interpolation
  /// within the covering log bucket, clamped to the observed maximum (so
  /// p100 is exact and a one-sample histogram reports that sample). 0 when
  /// empty.
  double Percentile(double p) const;

  double MeanMs() const { return count > 0 ? sum_ms / double(count) : 0.0; }

  /// The distribution recorded between `before` and this snapshot:
  /// bucket-, count- and sum-wise difference. `before` must be an earlier
  /// snapshot of the SAME histogram (counts are monotone; a mismatched
  /// pair clamps to zero rather than underflowing). max_ms is kept from
  /// this snapshot -- a maximum cannot be differenced -- so the delta's
  /// percentile clamp is an upper bound.
  HistogramSnapshot Since(const HistogramSnapshot& before) const;
};

/// Striped, lock-free latency histogram (see file comment). Record() costs
/// two relaxed fetch_adds plus a relaxed max update.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Record on this thread's stripe (stable per thread).
  void Record(double ms) { RecordStripe(ThisThreadStripe(), ms); }

  /// Record on an explicit stripe -- engine lanes pass their lane id so a
  /// lane never shares a stripe with another lane of the same pool.
  void RecordStripe(size_t stripe, double ms);

  /// Merge every stripe. Safe concurrently with Record().
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum_ns{0};
    std::atomic<uint64_t> max_ns{0};
  };

  static size_t ThisThreadStripe();

  std::array<Stripe, kStripes> stripes_;
};

/// Striped, lock-free monotone counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) { AddStripe(ThisThreadStripe(), n); }
  void AddStripe(size_t stripe, uint64_t n) {
    stripes_[stripe % kStripes].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };

  static size_t ThisThreadStripe();

  std::array<Stripe, kStripes> stripes_;
};

/// A last-write-wins instantaneous value.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of a metric family, sorted by name (Sort()), rendered
/// by obs/exposition. Collectors may also append component-owned metrics
/// (pager latencies, WAL histograms) that never lived in a registry.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  void AddCounter(std::string name, uint64_t value) {
    counters.emplace_back(std::move(name), value);
  }
  void AddGauge(std::string name, double value) {
    gauges.emplace_back(std::move(name), value);
  }
  void AddHistogram(std::string name, HistogramSnapshot h) {
    histograms.emplace_back(std::move(name), h);
  }

  /// nullptr when absent.
  const uint64_t* FindCounter(std::string_view name) const;
  const double* FindGauge(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  /// Order each family by name, for stable exposition output.
  void Sort();
};

/// Named-metric owner with get-or-create semantics. Lookups take a mutex;
/// hot paths are expected to resolve their metrics ONCE (at registration)
/// and record through the returned references, which stay valid for the
/// registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);

  /// Snapshot every registered metric, sorted by name. Safe concurrently
  /// with recording.
  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

}  // namespace brep::obs

#endif  // BREP_OBS_METRICS_H_
