#pragma once
// Fail-safe work-stealing worker pool shared by the acquisition engine and
// the fault-injection campaign runner.
//
// Workers claim work items [0, n) one at a time, in increasing index order,
// so a worker that finishes early takes the next item instead of idling.
// Finished items are *delivered* in index order, on one thread at a time:
// whichever worker finishes the lowest undelivered item delivers it and
// every finished item after it. A consumer of deliveries therefore sees the
// same sequence at every thread count, as long as item i depends only on i.
// Items finished early wait in a reorder buffer. A claim horizon bounds it:
// by default a sliding window of a few items per worker past the lowest
// undelivered item (orderedFor), or any horizon the caller derives from
// that item (orderedForHorizon); a worker that would start past it waits.
//
// Failure semantics ("fail-safe acquisition"):
//   * the first item (or delivery) that throws stops all claiming, so
//     doomed runs stop early;
//   * the LOWEST failing item index wins, whatever the timing: every item
//     below a failing one was claimed earlier, so it still runs and is
//     delivered, and its own failure would be seen;
//   * the winner is rethrown as a WorkerError carrying the item index and a
//     caller-supplied description of the item, with the original exception
//     nested (std::throw_with_nested). A WorkerError thrown by the item
//     itself (naming a finer identity, e.g. one trace of a block) passes
//     unchanged.
//
// Observability (obs/): an optional ProgressMeter, stepped by the delivery
// callback, doubles as a cooperative abort channel — a sink returning false
// stops delivery and claiming, wakes waiting workers and makes the pool
// throw ProgressAborted. An optional span label wraps each worker in a
// Chrome-trace span on its own track. Both hooks are pure sinks: the work a
// finished item computed is never altered (zero-perturbation).

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/progress.h"
#include "obs/trace_span.h"

namespace lpa {

/// A worker failure annotated with the identity of the failing work item.
/// what() = "<description of item>: <original what()>"; the original
/// exception is nested and recoverable via std::rethrow_if_nested.
class WorkerError : public std::runtime_error {
 public:
  WorkerError(std::size_t index, const std::string& what)
      : std::runtime_error(what), index_(index) {}

  /// Index of the failing work item (for acquisition: the trace index).
  std::size_t index() const { return index_; }

 private:
  std::size_t index_;
};

/// Bounded-exponential-backoff policy for retrying transient worker
/// failures (the resilience layer retries a failed acquisition call from
/// its first uncommitted group). Failure k (0-based) of a group sleeps
/// retryBackoffMs(policy, k) before the next try; the sleep is pure
/// scheduling — the retried work re-derives the same per-item substreams,
/// so a retry is bit-identical to a clean first run.
struct RetryPolicy {
  std::uint32_t maxAttempts = 3;   ///< total tries (1 = no retry)
  std::uint64_t baseBackoffMs = 1; ///< sleep after the first failure
};

/// Cap of every retry backoff sleep.
inline constexpr std::uint64_t kMaxBackoffMs = 100;

/// Backoff before the attempt that follows failure number `attempt`
/// (0-based): base * 2^attempt, capped at kMaxBackoffMs.
inline std::uint64_t retryBackoffMs(const RetryPolicy& policy,
                                    std::uint32_t attempt) {
  std::uint64_t ms = policy.baseBackoffMs;
  for (std::uint32_t k = 0; k < attempt && ms < kMaxBackoffMs; ++k) {
    ms *= 2;
  }
  return std::min(ms, kMaxBackoffMs);
}

/// Resolves a worker-count request against the amount of work:
/// 0 = hardware concurrency, never more threads than items.
inline std::uint32_t resolveWorkerThreads(std::uint32_t requested,
                                          std::size_t work) {
  std::uint32_t t = requested != 0
                        ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
  if (work == 0) work = 1;
  return static_cast<std::uint32_t>(std::min<std::size_t>(t, work));
}

namespace detail {

/// Reorder window of a run on `threads` workers: a few items per worker.
inline std::size_t reorderWindow(std::uint32_t threads) {
  return 4 * std::size_t{std::max(threads, 1u)};
}

/// Rethrows `error` as a WorkerError for item `index`, described by
/// `describe()`, with `error` nested; a WorkerError passes unchanged.
template <typename Describe>
[[noreturn]] void rethrowAsWorkerError(std::exception_ptr error,
                                       std::size_t index,
                                       const Describe& describe) {
  try {
    std::rethrow_exception(error);
  } catch (const WorkerError&) {
    throw;
  } catch (const std::exception& e) {
    std::throw_with_nested(WorkerError(index, describe() + ": " + e.what()));
  } catch (...) {
    std::throw_with_nested(WorkerError(index, describe()));
  }
}

/// Runs body(w, i) for every i in [0, n) on `threads` workers and
/// deliver(i) for each finished item in index order. Item i starts only
/// once i < horizon(d), d the lowest undelivered item. The horizon must not
/// fall as d grows, must exceed d, and may run at most `slots` items past
/// d, so results fit in `slots` slots (slot i % slots). `describe(i)` names
/// a failing item; `progress` (stepped by `deliver`) may abort; `spanLabel`
/// names per-worker spans.
template <typename Horizon, typename Body, typename Deliver,
          typename Describe>
void orderedForHorizon(std::size_t n, std::uint32_t threads,
                       std::size_t slots, const Horizon& horizon,
                       const Body& body, const Deliver& deliver,
                       const Describe& describe,
                       obs::ProgressMeter* progress = nullptr,
                       const char* spanLabel = nullptr) {
  if (n == 0) return;
  threads = static_cast<std::uint32_t>(std::clamp<std::size_t>(threads, 1, n));
  slots = std::max<std::size_t>(slots, 1);
  const auto aborted = [&] {
    return progress != nullptr && progress->abortRequested();
  };

  // Guarded by mu: the claim and delivery cursors, a finished flag per
  // slot, the delivery token and the lowest failure (n = none).
  std::mutex mu;
  std::condition_variable moved;
  std::size_t nextClaim = 0, nextDeliver = 0, failIndex = n;
  std::vector<char> finished(slots, 0);
  bool delivering = false;
  std::exception_ptr failError;
  const auto fail = [&](std::size_t i, std::exception_ptr e) {
    if (i < failIndex) {
      failIndex = i;
      failError = std::move(e);
    }
  };

  const auto work = [&](std::uint32_t w) {
    if (spanLabel != nullptr && threads > 1) {
      obs::TraceCollector::global().nameThisThreadTrack(
          "worker-" + std::to_string(w));
    }
    obs::Span span(
        spanLabel ? std::string(spanLabel) + " worker w" + std::to_string(w)
                  : std::string(),
        spanLabel ? &obs::TraceCollector::global() : nullptr);
    std::unique_lock<std::mutex> lk(mu);
    while (nextClaim < n && failIndex == n && !aborted()) {
      // Every item below i was claimed earlier, so the next one to deliver
      // is running and the horizon moves on. Items past a failure are
      // skipped, and so are items still past the horizon after an abort,
      // so the items an aborted run finished are a prefix.
      const std::size_t i = nextClaim++;
      moved.wait(lk, [&] {
        return i < horizon(nextDeliver) || i > failIndex || aborted();
      });
      if (i > failIndex || i >= horizon(nextDeliver)) break;
      std::exception_ptr error;
      lk.unlock();
      try {
        body(w, i);
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      if (error) {
        fail(i, std::move(error));
        break;
      }
      finished[i % slots] = 1;
      if (delivering || i != nextDeliver) continue;
      // Deliver the finished run from here on; a failed item ends it.
      delivering = true;
      while (nextDeliver < failIndex && finished[nextDeliver % slots] &&
             !aborted()) {
        const std::size_t d = nextDeliver;
        lk.unlock();
        try {
          deliver(d);
        } catch (...) {
          error = std::current_exception();
        }
        lk.lock();
        if (error) {
          fail(d, std::move(error));
          break;
        }
        finished[d % slots] = 0;
        ++nextDeliver;
        moved.notify_all();
      }
      delivering = false;
    }
    moved.notify_all();  // a failure or an abort wakes the waiting workers
  };

  if (threads == 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t w = 0; w < threads; ++w) pool.emplace_back(work, w);
    for (std::thread& t : pool) t.join();
  }

  if (failError) {
    rethrowAsWorkerError(failError, failIndex,
                         [&] { return describe(failIndex); });
  }
  if (aborted()) {
    // Denominated in the meter's units, not the pool's item count: an item
    // may cover several meter units (a lane group of traces), and the
    // payload must match what the aborting sink was shown.
    throw obs::ProgressAborted(spanLabel ? spanLabel : "sharded work",
                               progress->done(), progress->total());
  }
}

/// orderedForHorizon with a sliding window: item i starts only once
/// i < (lowest undelivered) + `window`, so results fit in `window` slots.
template <typename Body, typename Deliver, typename Describe>
void orderedFor(std::size_t n, std::uint32_t threads, std::size_t window,
                const Body& body, const Deliver& deliver,
                const Describe& describe,
                obs::ProgressMeter* progress = nullptr,
                const char* spanLabel = nullptr) {
  window = std::max<std::size_t>(window, 1);
  orderedForHorizon(
      n, threads, window, [window](std::size_t d) { return d + window; },
      body, deliver, describe, progress, spanLabel);
}

/// orderedFor for items that store their own results: `progress` is
/// stepped once per delivered item. The window still bounds how far a
/// failure or abort can be overrun.
template <typename Body, typename Describe>
void shardedFor(std::size_t n, std::uint32_t threads, const Body& body,
                const Describe& describe,
                obs::ProgressMeter* progress = nullptr,
                const char* spanLabel = nullptr) {
  orderedFor(
      n, threads, reorderWindow(threads), body,
      [&](std::size_t) {
        if (progress) progress->step();
      },
      describe, progress, spanLabel);
}

}  // namespace detail

}  // namespace lpa
