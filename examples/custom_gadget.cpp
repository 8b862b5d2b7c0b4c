// Custom-circuit walkthrough: the library as a leakage-evaluation tool for
// YOUR netlist, not just the built-in seven.
//
// We hand-build two 2-share masked AND gadgets -- the proper ISW gadget and
// a naive "broken" gadget that computes the cross products without the
// refresh randomness -- wire each into a tiny masked circuit, and compare
// their spectral leakage under identical stimuli. The broken gadget exposes
// an unmasked product net and lights up the WHT analysis.

#include <cstdio>

#include "core/leakage.h"
#include "crypto/present.h"
#include "netlist/builder.h"
#include "power/power_model.h"
#include "sim/event_sim.h"
#include "trace/prng.h"

namespace {

using namespace lpa;

struct Gadget {
  Netlist netlist;  // inputs: ma0..1, a0..1 (share pairs), mb..., r
};

// y = AND(a, b) on 2 shares. `secure` selects the ISW ordering with the
// refresh bit; the insecure variant computes y1 = a1&b1 ^ (a0&b1 ^ a1&b0)
// without any refresh -- functional, but its intermediate XOR node sees
// both cross products.
Netlist buildMaskedAnd(bool secure) {
  NetlistBuilder b;
  const NetId a0 = b.input("a0");
  const NetId a1 = b.input("a1");
  const NetId b0 = b.input("b0");
  const NetId b1 = b.input("b1");
  const NetId r = b.input("r");

  const NetId p11 = b.andGate({a1, b1});
  const NetId p00 = b.andGate({a0, b0});
  const NetId p01 = b.andGate({a0, b1});
  const NetId p10 = b.andGate({a1, b0});
  if (secure) {
    b.output(b.xorGate(b.xorGate(p11, r), p00), "y0");
    b.output(b.xorGate(b.xorGate(p01, r), p10), "y1");
  } else {
    b.output(b.xorGate(p11, p00), "y0");
    b.output(b.xorGate(p01, p10), "y1");  // r unused -> cross terms combine
    b.output(b.andGate({r, r}), "sink");  // keep r connected
  }
  return b.take();
}

double measure(const Netlist& nl, std::uint64_t seed) {
  const DelayModel delays(nl);
  PowerOptions popts;
  const PowerModel power(nl, popts);
  EventSim sim(nl, delays, SimOptions{DelayKind::Transport, 4.5});
  Prng rng(seed);

  // Classes: the 4 unmasked (a, b) pairs, mapped onto 16 WHT classes by
  // replication so we can reuse the 4-bit analysis front end.
  TraceSet traces(popts.numSamples);
  for (int rep = 0; rep < 256; ++rep) {
    for (std::uint8_t cls = 0; cls < 16; ++cls) {
      const std::uint8_t a = cls & 1u;
      const std::uint8_t bb = (cls >> 1) & 1u;
      // settle on a random sharing of (0, 0), transition to (a, b).
      auto enc = [&](std::uint8_t va, std::uint8_t vb) {
        const std::uint8_t ma = rng.bit();
        const std::uint8_t mb = rng.bit();
        return std::vector<std::uint8_t>{
            ma, static_cast<std::uint8_t>(va ^ ma),
            mb, static_cast<std::uint8_t>(vb ^ mb), rng.bit()};
      };
      sim.settle(enc(0, 0));
      const auto tr = sim.run(enc(a, bb));
      traces.add(cls, power.sample(tr));
    }
  }
  const SpectralAnalysis sa(traces, EstimatorMode::Debiased);
  return sa.totalLeakagePower();
}

}  // namespace

int main() {
  const Netlist good = buildMaskedAnd(/*secure=*/true);
  const Netlist bad = buildMaskedAnd(/*secure=*/false);

  const double leakGood = measure(good, 11);
  const double leakBad = measure(bad, 11);

  std::printf("ISW AND gadget (with refresh)    : leakage %10.3f\n",
              leakGood);
  std::printf("naive AND gadget (no refresh)    : leakage %10.3f\n", leakBad);
  std::printf("naive / ISW leakage ratio        : %10.1fx\n",
              leakBad / (leakGood > 0 ? leakGood : 1e-9));
  std::printf(
      "\nThe naive gadget's share-1 XOR combines a0b1 and a1b0, whose sum\n"
      "equals ab ^ (a0b0 ^ a1b1): its switching statistics depend on the\n"
      "unmasked product, which the Walsh-Hadamard decomposition surfaces\n"
      "immediately. This is the style of analysis the library enables for\n"
      "any custom gadget or countermeasure.\n");
  return 0;
}
