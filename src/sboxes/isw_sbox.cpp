// Ishai-Sahai-Wagner private-circuit transformation (d = 1, two shares) of
// the OPT netlist.
//
// Linear gates act share-wise; each nonlinear gate (AND, and OR via
// De Morgan) becomes the ISW multiplication gadget with one fresh random
// bit R:
//
//   Y0 = ((A1 & B1) ^ R) ^ (A0 & B0)
//   Y1 = ((A0 & B1) ^ R) ^ (A1 & B0)
//
// The parenthesization must be respected: the refresh R is folded in before
// the cross products, otherwise an intermediate net carries A&B unmasked.
// The gadget order is preserved *structurally* (gate tree shape), but --- as
// the paper stresses --- combinational gates evaluate whenever inputs
// arrive, so early evaluation can still transiently violate the order; that
// race is the residual first-order leakage the experiments quantify.
//
// Applied to the 14-gate OPT program (9 XOR, 2 AND, 2 OR, 1 INV) this gives
// exactly the paper's Table I ISW column: 16 AND, 34 XOR, 7 INV, 4 random
// bits.

#include <stdexcept>

#include "netlist/builder.h"
#include "sboxes/encoding.h"
#include "sboxes/impl_factories.h"
#include "sboxes/opt_sbox.h"

namespace lpa::detail {

namespace {

struct Shares {
  NetId s0;
  NetId s1;
};

class IswSbox final : public MaskedSbox {
 public:
  IswSbox() {
    const Slp& opt = optPresentSboxSlp();
    NetlistBuilder b;
    // Primary inputs: mask share, masked-data share, gadget randomness.
    std::vector<NetId> m, am, r;
    for (int i = 0; i < 4; ++i) {
      m.push_back(b.input(std::string("m").append(std::to_string(i))));
    }
    for (int i = 0; i < 4; ++i) {
      am.push_back(b.input("am" + std::to_string(i)));
    }
    numRandom_ = countNonlinear(opt);
    for (int i = 0; i < numRandom_; ++i) {
      r.push_back(b.input(std::string("r").append(std::to_string(i))));
    }

    std::vector<Shares> val(static_cast<std::size_t>(opt.numInputs) +
                            opt.steps.size());
    for (int i = 0; i < 4; ++i) {
      val[static_cast<std::size_t>(i)] = {m[static_cast<std::size_t>(i)],
                                          am[static_cast<std::size_t>(i)]};
    }
    int nextRandom = 0;
    for (std::size_t s = 0; s < opt.steps.size(); ++s) {
      const SlpStep& st = opt.steps[s];
      const Shares a = val[static_cast<std::size_t>(st.a)];
      Shares out{};
      switch (st.op) {
        case SlpOp::Xor: {
          const Shares bb = val[static_cast<std::size_t>(st.b)];
          out = {b.xorGate(a.s0, bb.s0), b.xorGate(a.s1, bb.s1)};
          break;
        }
        case SlpOp::Not:
          out = {a.s0, b.inv(a.s1)};
          break;
        case SlpOp::And: {
          const Shares bb = val[static_cast<std::size_t>(st.b)];
          out = andGadget(b, a, bb, r[static_cast<std::size_t>(nextRandom++)]);
          break;
        }
        case SlpOp::Or: {
          // OR(a, b) = NOT(AND(NOT a, NOT b)); complement one share each.
          const Shares bb = val[static_cast<std::size_t>(st.b)];
          const Shares na{a.s0, b.inv(a.s1)};
          const Shares nb{bb.s0, b.inv(bb.s1)};
          Shares g =
              andGadget(b, na, nb, r[static_cast<std::size_t>(nextRandom++)]);
          out = {g.s0, b.inv(g.s1)};
          break;
        }
      }
      val[static_cast<std::size_t>(opt.numInputs) + s] = out;
    }
    if (nextRandom != numRandom_) {
      throw std::logic_error("gadget randomness accounting mismatch");
    }
    for (std::size_t k = 0; k < opt.outputs.size(); ++k) {
      const Shares y = val[static_cast<std::size_t>(opt.outputs[k])];
      b.output(y.s0, std::string("y").append(std::to_string(k)) + "_0");
      b.output(y.s1, std::string("y").append(std::to_string(k)) + "_1");
    }
    nl_ = b.take();
  }

  SboxStyle style() const override { return SboxStyle::Isw; }
  int randomBits() const override { return numRandom_; }

  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    const std::uint8_t mask = rng.nibble();
    std::vector<std::uint8_t> in;
    in.reserve(nl_.inputs().size());
    appendNibbleBits(in, mask);                                      // m
    appendNibbleBits(in, static_cast<std::uint8_t>(plain ^ mask));   // am
    for (int i = 0; i < numRandom_; ++i) in.push_back(rng.bit());    // r
    return in;
  }

  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    (void)inputs;
    std::uint8_t y = 0;
    for (int k = 0; k < 4; ++k) {
      const std::uint8_t bit =
          static_cast<std::uint8_t>(outputs[static_cast<std::size_t>(2 * k)] ^
                                    outputs[static_cast<std::size_t>(2 * k + 1)]);
      y |= static_cast<std::uint8_t>((bit & 1u) << k);
    }
    return y;
  }

 private:
  static int countNonlinear(const Slp& s) {
    int n = 0;
    for (const SlpStep& st : s.steps) {
      if (st.op == SlpOp::And || st.op == SlpOp::Or) ++n;
    }
    return n;
  }

  static Shares andGadget(NetlistBuilder& b, Shares a, Shares bb, NetId r) {
    // Y0 = ((A1 & B1) ^ R) ^ (A0 & B0)
    const NetId p11 = b.andGate({a.s1, bb.s1});
    const NetId t0 = b.xorGate(p11, r);
    const NetId p00 = b.andGate({a.s0, bb.s0});
    const NetId y0 = b.xorGate(t0, p00);
    // Y1 = ((A0 & B1) ^ R) ^ (A1 & B0)
    const NetId p01 = b.andGate({a.s0, bb.s1});
    const NetId t1 = b.xorGate(p01, r);
    const NetId p10 = b.andGate({a.s1, bb.s0});
    const NetId y1 = b.xorGate(t1, p10);
    return {y0, y1};
  }

  int numRandom_ = 0;
};

}  // namespace

std::unique_ptr<MaskedSbox> makeIswSbox() {
  return std::make_unique<IswSbox>();
}

}  // namespace lpa::detail
