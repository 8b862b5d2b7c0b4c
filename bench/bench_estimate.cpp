// Cost of one jackknife estimate: StreamingLeakage::estimate() on folded
// acquisitions of the masked styles.
//
// Usage: bench_estimate [tracesPerClass] [calls] [--json p] [--ledger p]
//
//   tracesPerClass   traces folded before timing (default 128 -> 2048)
//   calls            timed estimate() calls per style (default 101)
//
// Folds acquireAt's traces into a StreamingLeakage with the default
// options (Debiased, K = 10 folds, 95 %), then times `calls` estimate()
// calls one at a time and reports the median per style in microseconds
// (the "estimate_us.<style>" params). Every call must return the same bits;
// the bench exits 1 if two calls differ.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_estimate", bench::parseBenchArgs(argc, argv));
  bench::header("Jackknife estimate cost: StreamingLeakage::estimate()",
                "the Sections III / V.B spectrum with delete-one-fold CIs");
  const std::uint32_t tracesPerClass =
      bench::positionalCount(scope.args(), 0, 128, "tracesPerClass");
  const std::uint32_t calls =
      std::max(1u, bench::positionalCount(scope.args(), 1, 101, "calls"));
  scope.report().setParam("traces_per_class",
                          static_cast<double>(tracesPerClass));

  std::printf("%-8s %8s %8s %14s\n", "impl", "traces", "samples",
              "estimate_us");
  bool same = true;
  for (SboxStyle s : {SboxStyle::Glut, SboxStyle::Rsm, SboxStyle::RsmRom,
                      SboxStyle::Isw, SboxStyle::Ti}) {
    ExperimentConfig cfg;
    cfg.acquisition.tracesPerClass = tracesPerClass;
    SboxExperiment exp(s, cfg);
    const TraceSet traces = exp.acquireAt(0.0);
    stats::StreamingLeakage stream(traces.numSamples());
    stream.addTraceSet(traces);

    const stats::LeakageEstimate first = stream.estimate();
    std::vector<double> us;
    us.reserve(calls);
    stats::LeakageEstimate last;
    for (std::uint32_t i = 0; i < calls; ++i) {
      bench::WallTimer timer;
      last = stream.estimate();
      us.push_back(timer.seconds() * 1e6);
    }
    same = same && std::memcmp(&first.totalCi, &last.totalCi,
                               sizeof first.totalCi) == 0 &&
           std::memcmp(&first.coefficients, &last.coefficients,
                       sizeof first.coefficients) == 0;
    std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
    const double median = us[us.size() / 2];
    const std::string name = bench::styleName(s);
    std::printf("%-8s %8zu %8u %14.1f\n", name.c_str(), traces.size(),
                traces.numSamples(), median);
    scope.report().setParam("estimate_us." + name, median);
  }
  if (!same) {
    std::printf("FAILS: repeated estimate() calls returned different bits\n");
    return 1;
  }
  return 0;
}
