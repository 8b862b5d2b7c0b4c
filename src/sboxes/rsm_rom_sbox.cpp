// ROM-style RSM (RSM-ROM): the same masked function as RSM, realized the way
// the paper describes a DPA-hardened ROM macro built from standard cells
// [Giaconia et al.]:
//
//  * one-hot structure: NOR-based 16-line address decoders and 256 pair
//    lines, of which exactly one activates per input configuration;
//  * short equal-length inverter lines synchronize the table inputs, so all
//    address bits reach the decoders together and input-related deviations
//    of the decode stage stay small;
//  * the bit planes are *ripple* word-line chains -- each output bit ORs its
//    128 active lines through a serial NOR/NAND chain, exactly the
//    structure behind Table I's RSM-ROM column (hundreds of NOR/INV cells,
//    no AND/OR/XOR, and a ~120-gate critical path while every other style
//    stays under 20).
//
// The ripple planes are why the paper finds RSM-ROM *less* secure than RSM
// and GLUT despite the one-hot discipline: how deep a firing word line sits
// in the chain determines how many stages ripple and when, so the energy
// and timing of an evaluation depend on the (masked) address pair; the long
// propagation spreads that data-dependent activity over many more sampling
// points ("more target points", Section V.B.1).

#include "crypto/present.h"
#include "netlist/builder.h"
#include "sboxes/encoding.h"
#include "sboxes/impl_factories.h"
#include "synth/decoder.h"

namespace lpa::detail {

namespace {

constexpr int kSyncChainLength = 4;  // inverters per input, polarity-neutral

std::uint8_t rsmRomTable(std::uint32_t a, std::uint32_t mi) {
  const std::uint32_t mo = (mi + 1) & 0xF;
  return static_cast<std::uint8_t>(kPresentSbox[a ^ mi] ^ mo);
}

class RsmRomSbox final : public MaskedSbox {
 public:
  RsmRomSbox() {
    NetlistBuilder b;
    std::vector<NetId> rawIns;
    for (int i = 0; i < 4; ++i) {
      rawIns.push_back(b.input("a" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
      rawIns.push_back(b.input("mi" + std::to_string(i)));
    }
    // Synchronizing delay lines (equal length on every input).
    std::vector<NetId> ins;
    ins.reserve(8);
    for (NetId raw : rawIns) ins.push_back(b.invChain(raw, kSyncChainLength));

    SharedComplements comp(b);
    const std::vector<NetId> a(ins.begin(), ins.begin() + 4);
    const std::vector<NetId> mi(ins.begin() + 4, ins.end());
    const std::vector<NetId> decA = buildNorDecoder(b, comp, a);
    const std::vector<NetId> decMi = buildNorDecoder(b, comp, mi);

    // One-hot pair lines: AND(decA, decMi) built as NOR of the complements.
    std::vector<NetId> decABar, decMiBar;
    decABar.reserve(16);
    decMiBar.reserve(16);
    for (NetId n : decA) decABar.push_back(comp.of(n));
    for (NetId n : decMi) decMiBar.push_back(comp.of(n));
    std::vector<std::vector<NetId>> pair(16, std::vector<NetId>(16));
    for (int j = 0; j < 16; ++j) {
      for (int k = 0; k < 16; ++k) {
        pair[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)] =
            b.norGate({decABar[static_cast<std::size_t>(j)],
                       decMiBar[static_cast<std::size_t>(k)]});
      }
    }

    // Ripple bit planes: serial OR accumulation along the word lines with
    // alternating NOR/NAND polarity (line complements feed the NAND
    // stages), INV/NAND/NOR cells only.
    for (int bit = 0; bit < 4; ++bit) {
      std::vector<NetId> lines;
      for (int j = 0; j < 16; ++j) {
        for (int k = 0; k < 16; ++k) {
          if ((rsmRomTable(static_cast<std::uint32_t>(j),
                           static_cast<std::uint32_t>(k)) >>
               bit) &
              1u) {
            lines.push_back(
                pair[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)]);
          }
        }
      }
      b.output(rippleOr(b, lines), "y" + std::to_string(bit));
    }
    nl_ = b.take();
  }

  SboxStyle style() const override { return SboxStyle::RsmRom; }
  int randomBits() const override { return 4; }  // MI only

  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    const std::uint8_t maskIn = rng.nibble();
    std::vector<std::uint8_t> in;
    in.reserve(nl_.inputs().size());
    appendNibbleBits(in, static_cast<std::uint8_t>(plain ^ maskIn));
    appendNibbleBits(in, maskIn);
    return in;
  }

  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    const std::uint8_t y = readNibbleBits(outputs, 0);
    const std::uint8_t maskIn = readNibbleBits(inputs, 4);
    return static_cast<std::uint8_t>(y ^ ((maskIn + 1u) & 0xF));
  }

 private:
  /// Serial OR over `lines`: acc alternates between active-high (extended
  /// with NOR + complemented next line... see below) and active-low. Stage
  /// i delay stacks, producing the characteristic ~|lines| critical path.
  ///
  ///   acc_0 (high) = line_0
  ///   acc_1 (low)  = NOR(acc_0, line_1)          = !(l0 | l1)
  ///   acc_2 (high) = NAND(acc_1, !line_2)        = l0 | l1 | l2
  ///   acc_3 (low)  = NOR(acc_2, line_3)          ...
  static NetId rippleOr(NetlistBuilder& b, const std::vector<NetId>& lines) {
    NetId acc = lines.at(0);
    bool accHigh = true;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (accHigh) {
        acc = b.norGate({acc, lines[i]});
        accHigh = false;
      } else {
        acc = b.nandGate({acc, b.inv(lines[i])});
        accHigh = true;
      }
    }
    return accHigh ? acc : b.inv(acc);
  }
};

}  // namespace

std::unique_ptr<MaskedSbox> makeRsmRomSbox() {
  return std::make_unique<RsmRomSbox>();
}

}  // namespace lpa::detail
