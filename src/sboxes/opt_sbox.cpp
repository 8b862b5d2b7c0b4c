#include "sboxes/opt_sbox.h"

#include "crypto/present.h"
#include "netlist/builder.h"
#include "sboxes/encoding.h"
#include "sboxes/impl_factories.h"

namespace lpa {

const Slp& optPresentSboxSlp() {
  // t-numbering follows the optimizer's output; dead steps already pruned.
  //   t0 = x1 ^ x2          t7  = t0 ^ t6
  //   t1 = x3 | t0          t8  = t4 ^ t7
  //   t2 = x2 ^ t1          t9  = x0 & t8
  //   t3 = x2 & t0          t10 = t8 | t7
  //   t4 = ~t2              t11 = t5 ^ t10
  //   t5 = x3 ^ t3          t12 = t9 ^ t2
  //   t6 = x0 ^ t5          t13 = t12 ^ t8
  //   y0 = t6, y1 = t12, y2 = t11, y3 = t13
  static const Slp kOpt = [] {
    Slp s;
    s.numInputs = 4;
    auto X = [](int i) { return i; };
    auto T = [](int i) { return 4 + i; };
    s.steps = {
        {SlpOp::Xor, X(1), X(2)},   // t0
        {SlpOp::Or, X(3), T(0)},    // t1
        {SlpOp::Xor, X(2), T(1)},   // t2
        {SlpOp::And, X(2), T(0)},   // t3
        {SlpOp::Not, T(2), 0},      // t4
        {SlpOp::Xor, X(3), T(3)},   // t5
        {SlpOp::Xor, X(0), T(5)},   // t6
        {SlpOp::Xor, T(0), T(6)},   // t7
        {SlpOp::Xor, T(4), T(7)},   // t8
        {SlpOp::And, X(0), T(8)},   // t9
        {SlpOp::Or, T(8), T(7)},    // t10
        {SlpOp::Xor, T(5), T(10)},  // t11
        {SlpOp::Xor, T(9), T(2)},   // t12
        {SlpOp::Xor, T(12), T(8)},  // t13
    };
    s.outputs = {T(6), T(12), T(11), T(13)};
    return s;
  }();
  return kOpt;
}

namespace detail {

namespace {

class OptSbox final : public MaskedSbox {
 public:
  OptSbox() {
    NetlistBuilder b;
    std::vector<NetId> x;
    for (int i = 0; i < 4; ++i) {
      x.push_back(b.input(std::string("x").append(std::to_string(i))));
    }
    const std::vector<NetId> y = optPresentSboxSlp().emit(b, x);
    for (int i = 0; i < 4; ++i) {
      b.output(y[static_cast<std::size_t>(i)],
               std::string("y").append(std::to_string(i)));
    }
    nl_ = b.take();
  }

  SboxStyle style() const override { return SboxStyle::Opt; }
  int randomBits() const override { return 0; }

  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    (void)rng;
    std::vector<std::uint8_t> in;
    in.reserve(nl_.inputs().size());
    appendNibbleBits(in, plain);
    return in;
  }

  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    (void)inputs;
    return readNibbleBits(outputs, 0);
  }
};

}  // namespace

std::unique_ptr<MaskedSbox> makeOptSbox() {
  return std::make_unique<OptSbox>();
}

}  // namespace detail
}  // namespace lpa
