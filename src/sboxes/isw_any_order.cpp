#include "sboxes/isw_any_order.h"

#include <stdexcept>

#include "netlist/builder.h"
#include "netlist/validate.h"
#include "sboxes/encoding.h"
#include "sboxes/opt_sbox.h"

namespace lpa {

int iswGadgetRandomBits(int order) {
  return 4 * order * (order + 1) / 2;
}

namespace {

class IswAnyOrderSbox final : public MaskedSbox {
 public:
  explicit IswAnyOrderSbox(int order) : order_(order) {
    if (order < 1 || order > 8) {
      throw std::invalid_argument("ISW order must be in 1..8");
    }
    const int n = order + 1;  // shares
    const Slp& opt = optPresentSboxSlp();

    NetlistBuilder b;
    // Inputs: share j of input bit v, share-major; then gadget randomness.
    std::vector<std::vector<NetId>> share(
        static_cast<std::size_t>(n));  // share[j][v]
    for (int j = 0; j < n; ++j) {
      for (int v = 0; v < 4; ++v) {
        share[static_cast<std::size_t>(j)].push_back(
            b.input(std::string("s")
                        .append(std::to_string(j))
                        .append("_")
                        .append(std::to_string(v))));
      }
    }
    std::vector<NetId> rpool;
    for (int i = 0; i < iswGadgetRandomBits(order); ++i) {
      rpool.push_back(b.input(std::string("r").append(std::to_string(i))));
    }
    std::size_t nextRandom = 0;
    auto freshR = [&]() { return rpool.at(nextRandom++); };

    using Shares = std::vector<NetId>;  // one net per share
    auto andGadget = [&](const Shares& a, const Shares& bb) {
      // z[i][j] for i != j.
      std::vector<std::vector<NetId>> z(
          static_cast<std::size_t>(n),
          std::vector<NetId>(static_cast<std::size_t>(n), kInvalidNet));
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          const NetId r = freshR();
          z[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = r;
          // z_ji = (r ^ a_i b_j) ^ a_j b_i  -- parenthesization matters.
          const NetId aibj =
              b.andGate({a[static_cast<std::size_t>(i)],
                         bb[static_cast<std::size_t>(j)]});
          const NetId t = b.xorGate(r, aibj);
          const NetId ajbi =
              b.andGate({a[static_cast<std::size_t>(j)],
                         bb[static_cast<std::size_t>(i)]});
          z[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
              b.xorGate(t, ajbi);
        }
      }
      Shares y(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        NetId acc = b.andGate({a[static_cast<std::size_t>(i)],
                               bb[static_cast<std::size_t>(i)]});
        for (int j = 0; j < n; ++j) {
          if (j == i) continue;
          acc = b.xorGate(
              acc, z[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
        }
        y[static_cast<std::size_t>(i)] = acc;
      }
      return y;
    };

    std::vector<Shares> val(static_cast<std::size_t>(opt.numInputs) +
                            opt.steps.size());
    for (int v = 0; v < 4; ++v) {
      Shares s(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) {
        s[static_cast<std::size_t>(j)] =
            share[static_cast<std::size_t>(j)][static_cast<std::size_t>(v)];
      }
      val[static_cast<std::size_t>(v)] = std::move(s);
    }

    for (std::size_t st = 0; st < opt.steps.size(); ++st) {
      const SlpStep& step = opt.steps[st];
      const Shares& a = val[static_cast<std::size_t>(step.a)];
      Shares out;
      switch (step.op) {
        case SlpOp::Xor: {
          const Shares& bb = val[static_cast<std::size_t>(step.b)];
          out.resize(static_cast<std::size_t>(n));
          for (int j = 0; j < n; ++j) {
            out[static_cast<std::size_t>(j)] =
                b.xorGate(a[static_cast<std::size_t>(j)],
                          bb[static_cast<std::size_t>(j)]);
          }
          break;
        }
        case SlpOp::Not: {
          out = a;
          out[0] = b.inv(out[0]);
          break;
        }
        case SlpOp::And: {
          out = andGadget(a, val[static_cast<std::size_t>(step.b)]);
          break;
        }
        case SlpOp::Or: {
          // De Morgan: complement one share of each operand and the result.
          Shares na = a;
          na[0] = b.inv(na[0]);
          Shares nb = val[static_cast<std::size_t>(step.b)];
          nb[0] = b.inv(nb[0]);
          out = andGadget(na, nb);
          out[0] = b.inv(out[0]);
          break;
        }
      }
      val[static_cast<std::size_t>(opt.numInputs) + st] = std::move(out);
    }
    if (nextRandom != rpool.size()) {
      throw std::logic_error("gadget randomness accounting mismatch");
    }
    for (std::size_t k = 0; k < opt.outputs.size(); ++k) {
      const Shares& y = val[static_cast<std::size_t>(opt.outputs[k])];
      for (int j = 0; j < n; ++j) {
        b.output(y[static_cast<std::size_t>(j)],
                 std::string("y")
                     .append(std::to_string(k))
                     .append("_")
                     .append(std::to_string(j)));
      }
    }
    nl_ = b.take();
  }

  SboxStyle style() const override { return SboxStyle::Isw; }
  int randomBits() const override { return iswGadgetRandomBits(order_); }

  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    const int n = order_ + 1;
    std::vector<std::uint8_t> in;
    in.reserve(nl_.inputs().size());
    std::uint8_t acc = plain;
    std::vector<std::uint8_t> masks;
    for (int j = 1; j < n; ++j) {
      masks.push_back(rng.nibble());
      acc = static_cast<std::uint8_t>(acc ^ masks.back());
    }
    appendNibbleBits(in, acc);  // share 0 completes the sharing
    for (std::uint8_t m : masks) appendNibbleBits(in, m);
    for (int i = 0; i < randomBits(); ++i) in.push_back(rng.bit());
    return in;
  }

  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    (void)inputs;
    const int n = order_ + 1;
    std::uint8_t y = 0;
    for (int k = 0; k < 4; ++k) {
      std::uint8_t bit = 0;
      for (int j = 0; j < n; ++j) {
        bit = static_cast<std::uint8_t>(
            bit ^ outputs[static_cast<std::size_t>(n * k + j)]);
      }
      y |= static_cast<std::uint8_t>((bit & 1u) << k);
    }
    return y;
  }

 private:
  int order_;
};

}  // namespace

std::unique_ptr<MaskedSbox> makeIswSboxOfOrder(int order) {
  auto sbox = std::make_unique<IswAnyOrderSbox>(order);
  validateOrThrow(sbox->netlist(), "ISW order " + std::to_string(order));
  return sbox;
}

}  // namespace lpa
