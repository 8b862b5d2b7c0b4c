// Durable-run overhead A/B: jobs::resilientAcquire without a checkpoint,
// against estimateAt and acquireAt on the same work, per masked style.
//
// Usage: bench_durable_overhead [tracesPerClass] [groupTraces] [rounds]
//                               [--json p] [--ledger p]
//
//   tracesPerClass   budget (default 1024 -> 16384 traces)
//   groupTraces      commit group size (default 256, JobConfig's default)
//   rounds           interleaved rounds (default 31)
//
// Each round times estimateAt (fold only), acquireAt (TraceSet only) and
// resilientAcquireAt (both, plus the group commits) once each, in an order
// that rotates per round, on hardware-concurrency workers. Reports per
// style the median of each and the median over rounds of each round's
// resilient / estimateAt ratio (the "resilient_over_estimate.<style>"
// params). An untimed first round checks the resilient run's traces and
// estimate against acquireAt's and estimateAt's; the bench exits 1 if they
// differ.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_durable_overhead",
                        bench::parseBenchArgs(argc, argv));
  bench::header("Durable acquisition overhead: resilientAcquireAt without "
                "a checkpoint vs estimateAt",
                "the Fig. 5 protocol");
  const std::uint32_t tracesPerClass =
      bench::positionalCount(scope.args(), 0, 1024, "tracesPerClass");
  jobs::JobConfig job;
  job.groupTraces =
      bench::positionalCount(scope.args(), 1, 256, "groupTraces");
  const std::uint32_t rounds =
      std::max(1u, bench::positionalCount(scope.args(), 2, 31, "rounds"));
  scope.report().setParam("traces_per_class",
                          static_cast<double>(tracesPerClass));
  scope.report().setParam("group_traces",
                          static_cast<double>(job.groupTraces));

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.size() % 2 ? v[v.size() / 2]
                        : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  };
  std::printf("%-8s %12s %12s %12s %18s\n", "impl", "estimateAt",
              "acquireAt", "resilient", "resilient/estimate");
  bool same = true;
  for (SboxStyle s : {SboxStyle::Glut, SboxStyle::Rsm, SboxStyle::Ti}) {
    ExperimentConfig cfg;
    cfg.acquisition.tracesPerClass = tracesPerClass;
    SboxExperiment exp(s, cfg);
    // Untimed round: the durable run must reproduce the plain ones.
    const jobs::ResilientResult durable = exp.resilientAcquireAt(0.0, job);
    same = same &&
           durable.estimate.total ==
               exp.estimateAt(0.0, EstimatorMode::Debiased).total &&
           jobs::digestOfTraceSet(durable.traces) ==
               jobs::digestOfTraceSet(exp.acquireAt(0.0));
    std::vector<double> times[3], ratio;
    for (std::uint32_t r = 0; r < rounds; ++r) {
      double ms[3] = {};
      for (std::uint32_t k = 0; k < 3; ++k) {
        const std::uint32_t which = (k + r) % 3;
        bench::WallTimer t;
        if (which == 0) {
          (void)exp.estimateAt(0.0, EstimatorMode::Debiased);
        } else if (which == 1) {
          (void)exp.acquireAt(0.0);
        } else {
          (void)exp.resilientAcquireAt(0.0, job);
        }
        ms[which] = 1e3 * t.seconds();
      }
      for (int k = 0; k < 3; ++k) times[k].push_back(ms[k]);
      ratio.push_back(ms[2] / ms[0]);
    }
    const std::string name = bench::styleName(s);
    std::printf("%-8s %9.2f ms %9.2f ms %9.2f ms %18.3f\n", name.c_str(),
                median(times[0]), median(times[1]), median(times[2]),
                median(ratio));
    scope.report().setParam("resilient_over_estimate." + name,
                            median(ratio));
  }
  std::printf("resilient traces and estimate equal the plain runs': %s\n",
              same ? "yes" : "NO");
  return same ? 0 : 1;
}
