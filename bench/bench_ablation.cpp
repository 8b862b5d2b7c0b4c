// Ablation bench for the modelling choices called out in DESIGN.md §5:
//  1. inertial vs transport delay (glitch richness),
//  2. process-variation jitter off/on (races enabling data-dependent
//     glitches; ISW's early evaluation needs them),
//  3. pulse width vs sample period (metric robustness).

#include "bench_util.h"
#include "sim/waveform.h"

namespace {

using namespace lpa;

double totalLeak(SboxStyle s, const ExperimentConfig& cfg,
                 obs::Profiler* profiler) {
  SboxExperiment exp(s, cfg);
  exp.attachProfiler(profiler);  // nullptr without --profile
  return exp.estimateAt(0.0, EstimatorMode::Debiased).total;
}

std::uint64_t glitchCount(SboxStyle s, DelayKind kind) {
  const auto sbox = makeSbox(s);
  ExperimentConfig cfg;
  const DelayModel dm(sbox->netlist(), cfg.delay);
  SimOptions opts = cfg.sim;
  opts.kind = kind;
  EventSim sim(sbox->netlist(), dm, opts);
  Prng rng(5);
  sim.settle(sbox->encode(0, rng));
  std::uint64_t glitches = 0;
  for (int i = 0; i < 128; ++i) {
    const auto tr = sim.run(sbox->encode(rng.nibble(), rng));
    glitches +=
        summarizeActivity(tr, sbox->netlist().numGates()).glitchTransitions;
  }
  return glitches;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_ablation", bench::parseBenchArgs(argc, argv));
  bench::header("Ablations of the modelling choices", "DESIGN.md section 5");

  {
    obs::PhaseTimer phase(scope.report(), "glitch counts");
    std::printf("1) glitch transitions per 128 evaluations, inertial vs "
                "transport delay:\n");
    std::printf("%-16s %12s %12s\n", "impl", "inertial", "transport");
    for (SboxStyle s : allSboxStyles()) {
      std::printf("%-16s %12llu %12llu\n", bench::styleName(s).c_str(),
                  static_cast<unsigned long long>(
                      glitchCount(s, DelayKind::Inertial)),
                  static_cast<unsigned long long>(
                      glitchCount(s, DelayKind::Transport)));
    }
  }

  {
    obs::PhaseTimer phase(scope.report(), "jitter ablation");
    std::printf("\n2) total leakage with process jitter off vs on (ISW needs "
                "races to leak):\n");
    std::printf("%-16s %14s %14s\n", "impl", "jitter=0", "jitter=6%");
    for (SboxStyle s : {SboxStyle::Isw, SboxStyle::Glut, SboxStyle::Lut}) {
      ExperimentConfig off;
      off.delay.jitterSigma = 0.0;
      ExperimentConfig on;  // default 6%
      const double leakOff = totalLeak(s, off, scope.profiler());
      const double leakOn = totalLeak(s, on, scope.profiler());
      std::printf("%-16s %14.2f %14.2f\n", bench::styleName(s).c_str(),
                  leakOff, leakOn);
      scope.report().setLeakage(bench::styleName(s) + ".jitter_off", leakOff);
      scope.report().setLeakage(bench::styleName(s) + ".jitter_on", leakOn);
    }
  }

  {
    obs::PhaseTimer phase(scope.report(), "pulse-width ablation");
    std::printf("\n3) total leakage vs current-pulse width (metric "
                "robustness):\n");
    std::printf("%-16s", "impl");
    for (double w : {15.0, 30.0, 60.0}) std::printf(" %11.0fps", w);
    std::printf("\n");
    for (SboxStyle s : {SboxStyle::Lut, SboxStyle::Isw}) {
      std::printf("%-16s", bench::styleName(s).c_str());
      for (double w : {15.0, 30.0, 60.0}) {
        ExperimentConfig cfg;
        cfg.power.pulseWidthPs = w;
        std::printf(" %13.2f", totalLeak(s, cfg, scope.profiler()));
      }
      std::printf("\n");
    }
  }
  return 0;
}
