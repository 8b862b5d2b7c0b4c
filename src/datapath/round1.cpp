#include "datapath/round1.h"

#include <stdexcept>

#include "crypto/present.h"
#include "netlist/compose.h"

namespace lpa {

namespace {

/// Index of the first of the four primary inputs that carry the masked
/// data nibble (the nibble the round key is XORed onto).
std::size_t dataOffsetOf(SboxStyle style) {
  switch (style) {
    case SboxStyle::Isw:
      return 4;  // inputs: m0..3, am0..3, r0..3
    case SboxStyle::Lut:
    case SboxStyle::Opt:
    case SboxStyle::Glut:
    case SboxStyle::Rsm:
    case SboxStyle::RsmRom:
    case SboxStyle::Ti:
      return 0;
  }
  throw std::invalid_argument("unknown style");
}

}  // namespace

Round1Datapath::Round1Datapath(SboxStyle style)
    : style_(style), proto_(makeSbox(style)) {
  const Netlist& core = proto_->netlist();
  sboxInputWidth_ = core.inputs().size();
  sboxOutputWidth_ = core.outputs().size();
  dataOffset_ = dataOffsetOf(style);

  // Primary inputs: per-nibble S-box inputs (masks/data/randomness in the
  // style's own layout), then the 64 round-key bits.
  std::vector<std::vector<NetId>> nibbleIns(16);
  for (int n = 0; n < 16; ++n) {
    for (std::size_t i = 0; i < sboxInputWidth_; ++i) {
      nibbleIns[static_cast<std::size_t>(n)].push_back(nl_.addInput(
          std::string("n").append(std::to_string(n)) + "_" +
          core.inputName(i)));
    }
  }
  std::vector<NetId> keyBits;
  keyBits.reserve(64);
  for (int b = 0; b < 64; ++b) {
    keyBits.push_back(nl_.addInput(std::string("k").append(std::to_string(b))));
  }

  for (int n = 0; n < 16; ++n) {
    std::vector<NetId> bindings = nibbleIns[static_cast<std::size_t>(n)];
    // Add-round-key on the masked data share.
    for (int b = 0; b < 4; ++b) {
      const std::size_t pos = dataOffset_ + static_cast<std::size_t>(b);
      bindings[pos] = nl_.addGate(
          GateType::Xor,
          {bindings[pos], keyBits[static_cast<std::size_t>(4 * n + b)]});
    }
    const std::vector<NetId> outs = appendInstance(nl_, core, bindings);
    for (std::size_t o = 0; o < outs.size(); ++o) {
      nl_.markOutput(outs[o],
                     std::string("n").append(std::to_string(n)) + "_" +
                         core.outputName(o));
    }
  }
}

int Round1Datapath::randomBits() const { return 16 * proto_->randomBits(); }

std::vector<std::uint8_t> Round1Datapath::encode(std::uint64_t plain,
                                                 std::uint64_t key,
                                                 Prng& rng) const {
  std::vector<std::uint8_t> in;
  in.reserve(nl_.inputs().size());
  for (int n = 0; n < 16; ++n) {
    const std::uint8_t nib =
        static_cast<std::uint8_t>((plain >> (4 * n)) & 0xF);
    const std::vector<std::uint8_t> enc = proto_->encode(nib, rng);
    in.insert(in.end(), enc.begin(), enc.end());
  }
  for (int b = 0; b < 64; ++b) {
    in.push_back(static_cast<std::uint8_t>((key >> b) & 1u));
  }
  return in;
}

std::uint64_t Round1Datapath::decode(
    const std::vector<std::uint8_t>& outputs,
    const std::vector<std::uint8_t>& inputs) const {
  std::uint64_t sboxLayer = 0;
  for (int n = 0; n < 16; ++n) {
    const std::vector<std::uint8_t> outSlice(
        outputs.begin() + static_cast<std::ptrdiff_t>(
                              sboxOutputWidth_ * static_cast<std::size_t>(n)),
        outputs.begin() + static_cast<std::ptrdiff_t>(
                              sboxOutputWidth_ *
                              static_cast<std::size_t>(n + 1)));
    const std::vector<std::uint8_t> inSlice(
        inputs.begin() + static_cast<std::ptrdiff_t>(
                             sboxInputWidth_ * static_cast<std::size_t>(n)),
        inputs.begin() + static_cast<std::ptrdiff_t>(
                             sboxInputWidth_ * static_cast<std::size_t>(n + 1)));
    // Note: the per-nibble decode uses the *pre-key* input slice; every
    // style's mask recovery only reads mask inputs, never the data nibble.
    const std::uint8_t nib = proto_->decode(outSlice, inSlice);
    sboxLayer |= static_cast<std::uint64_t>(nib) << (4 * n);
  }
  return Present::pLayer(sboxLayer);
}

std::uint64_t Round1Datapath::reference(std::uint64_t plain,
                                        std::uint64_t key) {
  return Present::pLayer(Present::sBoxLayer(plain ^ key));
}

}  // namespace lpa
