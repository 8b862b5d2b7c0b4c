// Global lookup table (GLUT) masking:  Y = GLUT(A, MI, MO)  with
// Y ^ MO = SBOX(A ^ MI).
//
// Built as the paper describes a "systematic" tabulated scheme: a full
// monolithic 12-input table. Structure: two 16-line one-hot decoders
// (A and MI), 256 pair lines, and per output bit an OR plane over 256
// line terms, where each term is the pair line gated by the appropriate
// MO-bit literal:
//
//   y_i = OR_{j,k} pair(j,k) AND (S_i(j^k) ? !mo_i : mo_i)
//
// Crucially the output-mask XOR is folded INTO the table terms: no
// intermediate net ever carries the unmasked S-box value (computing
// S(A^MI) first and XORing MO afterwards would expose the unmasked bit on
// an internal net and void the masking). AND/OR/INV cells only.

#include "crypto/present.h"
#include "netlist/builder.h"
#include "sboxes/encoding.h"
#include "sboxes/impl_factories.h"
#include "synth/decoder.h"

namespace lpa::detail {

namespace {

class GlutSbox final : public MaskedSbox {
 public:
  GlutSbox() {
    NetlistBuilder b;
    std::vector<NetId> a, mi, mo;
    for (int i = 0; i < 4; ++i) {
      a.push_back(b.input(std::string("a").append(std::to_string(i))));
    }
    for (int i = 0; i < 4; ++i) {
      mi.push_back(b.input("mi" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
      mo.push_back(b.input("mo" + std::to_string(i)));
    }
    SharedComplements comp(b);

    const std::vector<NetId> decA = buildAndDecoder(b, comp, a);
    const std::vector<NetId> decMi = buildAndDecoder(b, comp, mi);
    // Pair lines: line(j, k) active iff A == j and MI == k.
    std::vector<std::vector<NetId>> pair(16, std::vector<NetId>(16));
    for (int j = 0; j < 16; ++j) {
      for (int k = 0; k < 16; ++k) {
        pair[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)] =
            b.andGate({decA[static_cast<std::size_t>(j)],
                       decMi[static_cast<std::size_t>(k)]});
      }
    }

    for (int bit = 0; bit < 4; ++bit) {
      const NetId moLit = mo[static_cast<std::size_t>(bit)];
      const NetId moBar = comp.of(moLit);
      std::vector<NetId> terms;
      terms.reserve(256);
      for (int j = 0; j < 16; ++j) {
        for (int k = 0; k < 16; ++k) {
          const bool sBit =
              ((kPresentSbox[static_cast<std::size_t>(j ^ k)] >> bit) & 1u) !=
              0;
          // y_i = s_i ^ mo_i: the line contributes when the table entry is
          // 1 and mo is 0, or when the entry is 0 and mo is 1.
          terms.push_back(b.andGate(
              {pair[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)],
               sBit ? moBar : moLit}));
        }
      }
      b.output(b.orGate(terms), std::string("y").append(std::to_string(bit)));
    }
    nl_ = b.take();
  }

  SboxStyle style() const override { return SboxStyle::Glut; }
  int randomBits() const override { return 8; }  // MI and MO

  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    const std::uint8_t maskIn = rng.nibble();
    const std::uint8_t maskOut = rng.nibble();
    std::vector<std::uint8_t> in;
    in.reserve(nl_.inputs().size());
    appendNibbleBits(in, static_cast<std::uint8_t>(plain ^ maskIn));  // A
    appendNibbleBits(in, maskIn);
    appendNibbleBits(in, maskOut);
    return in;
  }

  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    const std::uint8_t y = readNibbleBits(outputs, 0);
    const std::uint8_t maskOut = readNibbleBits(inputs, 8);
    return static_cast<std::uint8_t>(y ^ maskOut);
  }
};

}  // namespace

std::unique_ptr<MaskedSbox> makeGlutSbox() {
  return std::make_unique<GlutSbox>();
}

}  // namespace lpa::detail
