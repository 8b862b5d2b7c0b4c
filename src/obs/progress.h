#pragma once
// Progress reporting for long-running campaigns (acquisition, fault
// campaigns): a thread-safe meter stepped by worker threads, a user-supplied
// sink callback with rate limiting, and cooperative abort.
//
// The sink sees (done, total, elapsed, ETA) and returns `true` to continue
// or `false` to request a cooperative abort: the sharded pool observes
// abortRequested() before every work item and unwinds by throwing
// ProgressAborted. Zero-perturbation: the meter never feeds information
// *into* the computation (aborting cancels it, it does not alter completed
// items), steps are relaxed atomics, and the callback fires outside any
// simulation code.
//
// When the callback is invoked is wall-clock rate-limited and therefore
// timing-dependent — which is fine, because the callback only renders. The
// final update (done == total) always fires.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace lpa::obs {

struct ProgressUpdate {
  std::string_view label;   ///< what is progressing ("acquire", ...)
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  double elapsedSec = 0.0;
  double etaSec = -1.0;     ///< < 0: unknown (nothing done yet)
  /// Throughput estimate (items/sec); the ETA is derived from it. On
  /// intermediate updates this is an EWMA of recent interval rates
  /// (time constant ~5 s, see ewmaBlendedRate), so the ETA tracks the
  /// *current* pace instead of whipsawing on the lifetime average after a
  /// slow warm-up or a mid-run stall. The final (done == total) update
  /// reports the lifetime mean done/elapsed — the honest summary number.
  /// 0 while nothing is done or no time has passed.
  double ratePerSec = 0.0;
};

/// One EWMA blending step for throughput smoothing: folds the rate
/// observed over the last `dtSec` seconds (`instRate`) into the previous
/// smoothed estimate with weight alpha = 1 - exp(-dtSec / tauSec), so the
/// smoothing horizon is a fixed wall-clock time constant regardless of how
/// irregularly updates arrive. `prevRate` < 0 means "no estimate yet" and
/// returns instRate (seeding). Pure function, exposed for tests.
double ewmaBlendedRate(double prevRate, double instRate, double dtSec,
                       double tauSec);

/// Return false to request a cooperative abort of the producing loop.
using ProgressFn = std::function<bool(const ProgressUpdate&)>;

/// Thrown by the sharded pool when a progress sink requested abort.
class ProgressAborted : public std::runtime_error {
 public:
  ProgressAborted(std::string_view label, std::uint64_t done,
                  std::uint64_t total);
  std::uint64_t done() const { return done_; }
  std::uint64_t total() const { return total_; }

 private:
  std::uint64_t done_;
  std::uint64_t total_;
};

class ProgressMeter {
 public:
  /// `fn` may be empty (the meter then only counts). `minIntervalSec`
  /// rate-limits intermediate callbacks; the final one always fires.
  ProgressMeter(std::string label, std::uint64_t total, ProgressFn fn,
                double minIntervalSec = 0.1);

  /// Thread-safe; called by workers after each finished item.
  void step(std::uint64_t n = 1);

  /// Emits a final (forced) update. Idempotent; called by the producer
  /// after the loop completes.
  void finish();

  bool abortRequested() const {
    return abort_.load(std::memory_order_relaxed);
  }

  std::uint64_t done() const { return done_.load(std::memory_order_relaxed); }
  std::uint64_t total() const { return total_; }
  const std::string& label() const { return label_; }

 private:
  void emit(std::uint64_t done, bool force);

  std::string label_;
  std::uint64_t total_;
  ProgressFn fn_;
  double minIntervalSec_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> abort_{false};
  std::mutex emitMu_;
  double lastEmitSec_ = -1.0;
  bool finished_ = false;
  // EWMA throughput state (guarded by emitMu_): the smoothed rate and the
  // (done, elapsed) coordinates of the previous emission, which bound the
  // interval the next instantaneous rate is measured over.
  double ewmaRate_ = -1.0;
  std::uint64_t lastRateDone_ = 0;
  double lastRateSec_ = 0.0;
};

/// Ready-made sink rendering a single overwriting progress line on stderr:
///   "\r<label> 512/1024 (50.0%)  12.3s elapsed, eta 12.1s"
/// Emits a newline when done == total. Always returns true (never aborts).
ProgressFn stderrProgressLine();

}  // namespace lpa::obs
