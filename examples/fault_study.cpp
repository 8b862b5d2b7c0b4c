// Leakage under faults: does a defect in the masking randomness bring the
// paper's single-bit (wH(u) = 1) leakage back?
//
// A masked implementation's protection rests on its mask/randomness wires
// being live and uniform. This study runs the fault-injection campaign over
// every stuck-at fault on those wires, for each implementation, and compares
// the WHT leakage of the faulted device against the fault-free baseline:
// a stuck mask is the classic "broken TRNG" field failure, and the
// single-bit leakage it re-exposes is exactly what a first-order attacker
// consumes.
//
// Usage: fault_study [tracesPerClass=8] [threads=0]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.h"
#include "fault/campaign.h"
#include "obs/metrics.h"
#include "obs/progress.h"

int main(int argc, char** argv) {
  using namespace lpa;

  FaultCampaignConfig cfg;
  cfg.tracesPerClass =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 8;
  cfg.numThreads =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 0;
  // The calibrated operating point (DESIGN.md section 5), same as every
  // other study in this repo.
  const ExperimentConfig ecfg;
  cfg.sim = ecfg.sim;
  // Live per-fault progress on stderr (stdout keeps the clean table).
  cfg.progress = obs::stderrProgressLine();

  std::printf("stuck-at campaign on all mask/randomness wires, %u traces/"
              "class per fault\n\n",
              cfg.tracesPerClass);
  std::printf("%-16s %6s | %12s | %12s %8s | %s\n", "impl", "faults",
              "base 1-bit", "worst 1-bit", "ratio", "worst fault / classes");

  for (SboxStyle style : allSboxStyles()) {
    const auto sbox = makeSbox(style);
    const DelayModel delays(sbox->netlist(), ecfg.delay);
    PowerModel power(sbox->netlist(), ecfg.power);
    power.attachMetrics(&obs::MetricsRegistry::global());

    const std::vector<FaultSpec> faults =
        stuckAtFaults(maskWireNets(*sbox));
    if (faults.empty()) {
      std::printf("%-16s %6zu | %12s | (unprotected: no mask wires to "
                  "fault)\n",
                  std::string(sbox->name()).c_str(), faults.size(), "-");
      continue;
    }

    const FaultCampaignResult res =
        runFaultCampaign(*sbox, delays, power, faults, cfg);

    const FaultReport* worst = nullptr;
    FaultTraceCounts agg;
    for (const FaultReport& r : res.reports) {
      agg.maskedOut += r.counts.maskedOut;
      agg.detectedByDecode += r.counts.detectedByDecode;
      agg.silentCorruption += r.counts.silentCorruption;
      agg.diverged += r.counts.diverged;
      if (!worst || r.singleBitLeakage > worst->singleBitLeakage) worst = &r;
    }
    const double base = res.baselineSingleBitLeakage;
    const double ratio =
        base > 0.0 ? worst->singleBitLeakage / base : 0.0;
    std::printf("%-16s %6zu | %12.3f | %12.3f %7.1fx | %s\n",
                std::string(sbox->name()).c_str(), faults.size(), base,
                worst->singleBitLeakage, ratio, worst->description.c_str());
    std::printf("%-16s        |              | per-trace outcomes: "
                "%u masked-out, %u detected, %u silent, %u diverged\n",
                "", agg.maskedOut, agg.detectedByDecode, agg.silentCorruption,
                agg.diverged);
  }

  std::printf(
      "\nreading the table:\n"
      " * 'worst 1-bit' is the largest single-bit WHT leakage over all\n"
      "   faulted variants -- when it dwarfs the baseline, a single stuck\n"
      "   mask wire has demoted the masked implementation to (nearly)\n"
      "   unprotected behaviour;\n"
      " * 'detected' traces decode to the wrong S-box value: a downstream\n"
      "   integrity check would catch the defect. 'masked-out'/'silent'\n"
      "   traces are functionally clean, so only the leakage metric (or a\n"
      "   TRNG health test) reveals the degradation;\n"
      " * 'diverged' counts watchdog-terminated runs (fault-induced\n"
      "   oscillation); stuck-at faults cannot oscillate, so the column is\n"
      "   zero here -- see tests/test_fault.cpp for a bridging-fault\n"
      "   example that does diverge.\n");

  // Campaign-wide tallies from the instrumentation layer (obs/metrics.h):
  // the same numbers the per-style rows aggregated, but read back from the
  // global registry the campaign runner counts into. Simulator events are
  // summed over the engines: faulted traces run on the batch engine unless
  // they need the reference one. The fault-free baselines are acquisitions,
  // which simulate each distinct stimulus once, so "traces sampled" counts
  // their simulations, not their traces.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const std::uint64_t simEvents =
      snap.counterOr("sim.events_processed", 0) +
      snap.counterOr("sim.batch.events_processed", 0);
  std::printf(
      "\ninstrumentation totals (obs::MetricsRegistry):\n"
      "  campaigns %llu, faults run %llu, sim events %llu, traces sampled "
      "%llu\n"
      "  baseline traces acquired %llu from %llu distinct stimuli\n"
      "  outcomes: %llu masked-out, %llu detected, %llu silent, %llu "
      "diverged\n",
      static_cast<unsigned long long>(snap.counterOr("fault.campaigns", 0)),
      static_cast<unsigned long long>(snap.counterOr("fault.faults_run", 0)),
      static_cast<unsigned long long>(simEvents),
      static_cast<unsigned long long>(
          snap.counterOr("power.traces_sampled", 0)),
      static_cast<unsigned long long>(
          snap.counterOr("acquire.traces_total", 0)),
      static_cast<unsigned long long>(
          snap.counterOr("acquire.distinct_total", 0)),
      static_cast<unsigned long long>(
          snap.counterOr("fault.outcome.masked_out", 0)),
      static_cast<unsigned long long>(
          snap.counterOr("fault.outcome.detected_by_decode", 0)),
      static_cast<unsigned long long>(
          snap.counterOr("fault.outcome.silent_corruption", 0)),
      static_cast<unsigned long long>(
          snap.counterOr("fault.outcome.diverged", 0)));
  return 0;
}
