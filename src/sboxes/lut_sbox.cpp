// Unprotected lookup-table implementation (the paper's baseline "LUT").
//
// Two-level AND/OR/INV logic of the PRESENT S-box: each output bit is a
// Quine-McCluskey-minimized sum of products over the 4 input bits, with a
// shared inverter bank (matching the paper's 18 AND / 7 OR / 7 INV scale).

#include "crypto/present.h"
#include "netlist/builder.h"
#include "sboxes/encoding.h"
#include "sboxes/impl_factories.h"
#include "synth/mapper.h"
#include "synth/qm.h"
#include "synth/truthtable.h"

namespace lpa::detail {

namespace {

class LutSbox final : public MaskedSbox {
 public:
  LutSbox() {
    NetlistBuilder b;
    std::vector<NetId> x;
    for (int i = 0; i < 4; ++i) x.push_back(b.input("x" + std::to_string(i)));
    SharedComplements comp(b);
    const std::vector<std::uint8_t> lut(kPresentSbox.begin(),
                                        kPresentSbox.end());
    for (int bit = 0; bit < 4; ++bit) {
      const TruthTable tt = TruthTable::fromLutBit(4, lut, bit);
      const std::vector<Cube> sop = minimizeQm(tt);
      const NetId y = mapSop(b, comp, x, sop);
      b.output(y, "y" + std::to_string(bit));
    }
    nl_ = b.take();
  }

  SboxStyle style() const override { return SboxStyle::Lut; }
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

std::unique_ptr<MaskedSbox> makeLutSbox() {
  return std::make_unique<LutSbox>();
}

}  // namespace lpa::detail
