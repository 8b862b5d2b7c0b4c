#pragma once
// Thread-safe metrics registry: named counters and gauges with cheap
// relaxed-atomic updates on hot paths and a consistent snapshot API.
//
// ## Zero-perturbation contract
//
// Observability must never change what the pipeline computes. Instruments
// therefore (a) never consume PRNG streams, (b) never synchronize beyond a
// relaxed atomic (no ordering the simulation could observe), and (c) are
// pure sinks: no simulation code path reads a metric back. With metrics
// attached or detached, traces and leakage values are bit-identical,
// which tests/test_obs.cpp enforces.
//
// ## Handles and cells
//
// `counter()/gauge()` get-or-create an instrument under a mutex
// (registration is rare) and return a trivially-copyable *handle* wrapping a
// pointer to the instrument's storage cell. Updating through a handle is
// lock-free. A default-constructed (null) handle is a no-op sink, which is
// how components represent "detached".
//
// Every cell is padded to a cache line (alignas 64) so hot counters updated
// from different worker threads never false-share; per-thread accumulation
// blocks (e.g. EventSim's SimStats) follow the same rule and flush here in
// one relaxed add per run, not per event.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace lpa::obs {

namespace detail {

inline constexpr std::size_t kCacheLineBytes = 64;

struct alignas(kCacheLineBytes) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct alignas(kCacheLineBytes) GaugeCell {
  std::atomic<double> value{0.0};
};

}  // namespace detail

/// Monotonic counter handle. Null handle (default-constructed) is a no-op.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n) const {
    if (cell_) cell_->value.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() const { add(1); }
  std::uint64_t value() const {
    return cell_ ? cell_->value.load(std::memory_order_relaxed) : 0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* c) : cell_(c) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-value gauge with a monotone max helper. Null handle = no-op.
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const {
    if (cell_) cell_->value.store(v, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if larger (for peak-depth style metrics).
  void recordMax(double v) const;
  double value() const {
    return cell_ ? cell_->value.load(std::memory_order_relaxed) : 0.0;
  }
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* c) : cell_(c) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Point-in-time copy of every instrument, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;

  std::uint64_t counterOr(std::string_view name, std::uint64_t fallback) const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {}}: the empty
  /// histograms object keeps lpa-run-report/4's metrics layout.
  Json toJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Handles stay valid for the registry's lifetime; a name
  /// always maps to the same cell, so concurrent registration of the same
  /// name from many threads yields handles onto one shared instrument.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// The process-wide default registry most components attach to.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  // Deques never relocate elements; cells are cache-line aligned so even
  // deque-adjacent cells occupy distinct lines.
  std::deque<detail::CounterCell> counterCells_;
  std::deque<detail::GaugeCell> gaugeCells_;
  std::map<std::string, detail::CounterCell*, std::less<>> counters_;
  std::map<std::string, detail::GaugeCell*, std::less<>> gauges_;
};

}  // namespace lpa::obs
