// Masking comparison: the paper's core experiment as a library walkthrough.
//
// Evaluates all seven PRESENT S-box implementations on an equal basis --
// same stimulus protocol, same power model, same spectral metric -- and
// prints a ranking with area/delay/randomness context, i.e. the security/
// cost trade-off a designer would consult before picking a countermeasure.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/experiment.h"
#include "netlist/stats.h"

int main() {
  using namespace lpa;

  struct Row {
    std::string name;
    double leakage;
    double singleBitShare;
    double area;
    std::uint32_t delay;
    int randomBits;
  };
  std::vector<Row> rows;

  for (SboxStyle style : allSboxStyles()) {
    SboxExperiment exp(style);
    const NetlistStats stats = computeStats(exp.sbox().netlist());
    const auto e = exp.estimateAt(0.0, EstimatorMode::Debiased);
    rows.push_back({std::string(exp.sbox().name()), e.total,
                    e.singleBitRatio, stats.equivalentGates,
                    stats.delayLevels, exp.sbox().randomBits()});
  }

  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.leakage < b.leakage; });

  std::printf("ranking by total WHT leakage power (fresh device, most secure"
              " first):\n\n");
  std::printf("%4s %-16s %12s %10s %10s %7s %8s\n", "rank", "impl", "leakage",
              "1-bit %", "area[GE]", "delay", "rand[b]");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%4zu %-16s %12.2f %9.2f%% %10.1f %7u %8d\n", i + 1,
                rows[i].name.c_str(), rows[i].leakage,
                100.0 * rows[i].singleBitShare, rows[i].area, rows[i].delay,
                rows[i].randomBits);
  }

  std::printf(
      "\ntakeaways (matching the paper):\n"
      " * ISW is the most secure style -- it exploits the optimized\n"
      "   AND/OR-lean S-box equation, so only 4 gadgets can race;\n"
      " * TI is the least secure *masked* style: glitches cannot unmask\n"
      "   shares (non-completeness), but the sheer netlist amplifies every\n"
      "   residual interaction;\n"
      " * RSM-ROM pays for its 100+-gate ripple word lines: the long\n"
      "   propagation gives the attacker many more points in time;\n"
      " * the unprotected circuits leak an order of magnitude more, and\n"
      "   dominantly through single bits (solid bars of the paper's\n"
      "   Fig. 7).\n");
  return 0;
}
