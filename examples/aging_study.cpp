// Aging study: how 4 years in the field change the side-channel posture.
//
// Walks the MOSRA-like pipeline explicitly -- stress-profile extraction,
// per-gate BTI/HCI Vth drift, drive/delay degradation -- then re-runs the
// leakage measurement on the aged device, reproducing the paper's Section
// V.B.2 narrative: leakage decreases with age, the security ordering is
// preserved, and masking does not become weaker over the device lifetime.

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/progress.h"

int main() {
  using namespace lpa;

  // Live acquisition progress on stderr; every SboxExperiment below routes
  // its sim.*/power.* counters into the global registry (observe default).
  ExperimentConfig cfg;
  cfg.acquisition.progress = obs::stderrProgressLine();

  std::printf("== per-gate degradation of the ISW circuit ==\n");
  SboxExperiment isw(SboxStyle::Isw, cfg);
  const StressProfile& stress = isw.stressProfile();
  double maxDuty = 0.0, maxToggles = 0.0;
  for (std::size_t i = 0; i < stress.dutyHigh.size(); ++i) {
    maxDuty = std::max(maxDuty, stress.dutyHigh[i]);
    maxToggles = std::max(maxToggles, stress.togglesPerCycle[i]);
  }
  std::printf("max stress duty %.2f, max toggles/cycle %.2f\n", maxDuty,
              maxToggles);

  for (double months : {12.0, 48.0}) {
    const AgingFactors f = isw.agingFactorsAt(months);
    double worstVth = 0.0, worstAmp = 1.0;
    for (std::size_t i = 0; i < f.vthShiftV.size(); ++i) {
      worstVth = std::max(worstVth, f.vthShiftV[i]);
      worstAmp = std::min(worstAmp, f.amplitudeScale[i]);
    }
    std::printf("after %2.0f months: worst dVth %.1f mV, worst drive %.1f%%\n",
                months, 1e3 * worstVth, 100.0 * worstAmp);
  }

  std::printf("\n== leakage vs age, every implementation ==\n");
  std::printf("%-16s", "impl");
  for (double m : {0.0, 12.0, 24.0, 36.0, 48.0}) std::printf(" %9.0fmo", m);
  std::printf("\n");

  std::vector<std::pair<std::string, std::vector<double>>> table;
  for (SboxStyle style : allSboxStyles()) {
    SboxExperiment exp(style, cfg);
    std::vector<double> leak;
    std::printf("%-16s", std::string(sboxStyleName(style)).c_str());
    for (double m : {0.0, 12.0, 24.0, 36.0, 48.0}) {
      leak.push_back(SpectralAnalysis(exp.acquireAt(m), EstimatorMode::Debiased)
                         .totalLeakagePower());
      std::printf(" %11.1f", leak.back());
    }
    std::printf("\n");
    table.emplace_back(std::string(sboxStyleName(style)), leak);
  }

  // Ordering preservation: rank by fresh leakage, check it never changes.
  auto rankAt = [&](std::size_t ageIdx) {
    std::vector<std::size_t> idx(table.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return table[a].second[ageIdx] < table[b].second[ageIdx];
    });
    return idx;
  };
  bool preserved = true;
  const auto fresh = rankAt(0);
  for (std::size_t age = 1; age < 5 && preserved; ++age) {
    preserved = rankAt(age) == fresh;
  }
  std::printf(
      "\nsecurity ordering preserved across all ages: %s\n"
      "(the paper's takeaway: unlike dual-rail hiding, masking does not\n"
      "become more vulnerable as the device wears out)\n",
      preserved ? "YES" : "NO");

  // What the study cost, from the instrumentation layer (obs/metrics.h).
  // Acquisition simulates each distinct stimulus of a call once, so the
  // sim and power counters count simulations, not traces. Simulator
  // counters are summed over the engines: acquisitions and stress profiles
  // run on the batch engine (sim.batch.*), reference runs count in sim.*.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto sim = [&](const std::string& name) {
    return static_cast<unsigned long long>(
        snap.counterOr("sim." + name, 0) +
        snap.counterOr("sim.batch." + name, 0));
  };
  std::printf(
      "\ninstrumentation totals: %llu traces acquired from %llu distinct "
      "stimuli,\n"
      "%llu sim runs, %llu events (%llu committed, %llu glitch-filtered),\n"
      "%llu traces sampled, %llu WHT analyses\n",
      static_cast<unsigned long long>(
          snap.counterOr("acquire.traces_total", 0)),
      static_cast<unsigned long long>(
          snap.counterOr("acquire.distinct_total", 0)),
      sim("runs"), sim("events_processed"), sim("transitions_committed"),
      sim("glitches_inertial_filtered"),
      static_cast<unsigned long long>(
          snap.counterOr("power.traces_sampled", 0)),
      static_cast<unsigned long long>(snap.counterOr("wht.analyses", 0)));
  return 0;
}
