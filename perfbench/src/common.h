#pragma once
// Shared pieces of the repository benchmark: the run context, the in-memory
// span recorder, operation/check accounting, digests and small statistics.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "stats/streaming_leakage.h"
#include "trace/trace_set.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Workload seed 0 maps onto the library's calibrated acquisition seed, so
/// the default run reproduces the repo's pinned operating point.
inline constexpr std::uint64_t kLibrarySeed = 0xCAFE0003ULL;

struct Context {
  std::uint64_t seed = 0;  ///< the --seed argument
  std::uint64_t acquisitionSeed() const { return kLibrarySeed + seed; }
};

/// The masked styles (everything but the two unprotected netlists).
std::vector<lpa::SboxStyle> maskedStyles();

/// Style name used in metric and digest keys: LUT, OPT, GLUT, RSM,
/// RSM-ROM, ISW, TI.
std::string styleKey(lpa::SboxStyle s);

/// Experiment configuration shared by all workloads: the library defaults
/// (worker threads = hardware concurrency) with the workload seed applied.
lpa::ExperimentConfig experimentConfig(const Context& ctx);

/// Records one span per call into a layer: name, style (may be empty),
/// begin, end and the enclosing span. Single-threaded (spans are opened
/// around the benchmark's own calls, never inside library workers); kept in
/// memory and written out once when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string style;
    int parent = -1;
    double beginUs = 0.0;
    double endUs = 0.0;
  };

  /// RAII span; a null tracer makes it a no-op, so one code path serves
  /// traced and untraced callers.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string style = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON ("X" events; args carry style and parent).
  bool writeJson(const std::string& path) const;

 private:
  double nowUs() const;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Attempted/failed operation accounting. An operation fails when it
/// throws or when a correctness check on its output does not hold.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
  /// Runs `fn` as one operation; an exception counts as a failure.
  template <typename Fn>
  void attempt(const std::string& what, const Fn& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      expect(false, what + ": " + e.what());
      return;
    }
    expect(true, what);
  }
};

/// Digest of every field of a leakage estimate (point values, intervals,
/// per-coefficient energies): bit-identical estimates <=> equal digests.
std::string estimateDigest(const lpa::stats::LeakageEstimate& e);
std::string traceDigest(const lpa::TraceSet& ts);

/// One timed repetition of a workload.
struct Iteration {
  double wallS = 0.0;
  double setupS = 0.0;
  std::uint64_t traces = 0;
  /// Seed-determined outputs (leakage and trace digests, outcome counts);
  /// equal across repetitions, and pinned for the default seed.
  std::map<std::string, std::string> digests;
};

double median(std::vector<double> v);

/// Peak resident set size of this process in MiB.
double peakRssMb();

std::uint32_t hardwareThreads();

}  // namespace perfbench
