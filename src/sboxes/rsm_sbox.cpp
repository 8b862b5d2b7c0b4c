// Rotating S-box masking (RSM): a low-entropy tabulated scheme where the
// output mask is derived from the input mask, MO = (MI + 1) mod 16, so
//
//   RSM(A, MI) = GLUT(A, MI, (MI + 1) mod 16).
//
// With MO folded into the table, each output bit is an 8-variable function
// of (A, MI); the netlist is its Quine-McCluskey-minimized two-level form,
// which is why RSM is considerably more compact than GLUT (Table I).

#include "crypto/present.h"
#include "netlist/builder.h"
#include "sboxes/encoding.h"
#include "sboxes/impl_factories.h"
#include "synth/mapper.h"
#include "synth/qm.h"
#include "synth/truthtable.h"

namespace lpa {

namespace {

/// The tabulated RSM function: input x = (MI << 4) | A, output nibble.
std::uint8_t rsmTable(std::uint32_t x) {
  const std::uint32_t a = x & 0xF;
  const std::uint32_t mi = (x >> 4) & 0xF;
  const std::uint32_t mo = (mi + 1) & 0xF;
  return static_cast<std::uint8_t>(kPresentSbox[a ^ mi] ^ mo);
}

class RsmSbox final : public MaskedSbox {
 public:
  RsmSbox() {
    NetlistBuilder b;
    std::vector<NetId> ins;
    for (int i = 0; i < 4; ++i) ins.push_back(b.input("a" + std::to_string(i)));
    for (int i = 0; i < 4; ++i) {
      ins.push_back(b.input("mi" + std::to_string(i)));
    }
    SharedComplements comp(b);
    for (int bit = 0; bit < 4; ++bit) {
      const TruthTable tt = TruthTable::fromFunction(
          8, [bit](std::uint32_t x) { return ((rsmTable(x) >> bit) & 1u) != 0; });
      const std::vector<Cube> sop = minimizeQm(tt);
      b.output(mapSop(b, comp, ins, sop), "y" + std::to_string(bit));
    }
    nl_ = b.take();
  }

  SboxStyle style() const override { return SboxStyle::Rsm; }
  int randomBits() const override { return 4; }  // MI only

  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    const std::uint8_t maskIn = rng.nibble();
    std::vector<std::uint8_t> in;
    in.reserve(nl_.inputs().size());
    appendNibbleBits(in, static_cast<std::uint8_t>(plain ^ maskIn));  // A
    appendNibbleBits(in, maskIn);
    return in;
  }

  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    const std::uint8_t y = readNibbleBits(outputs, 0);
    const std::uint8_t maskIn = readNibbleBits(inputs, 4);
    return static_cast<std::uint8_t>(y ^ ((maskIn + 1u) & 0xF));
  }
};

}  // namespace

namespace detail {
std::unique_ptr<MaskedSbox> makeRsmSbox() {
  return std::make_unique<RsmSbox>();
}
}  // namespace detail

}  // namespace lpa
