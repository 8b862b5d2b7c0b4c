// Tests for truth tables, ANF, Quine-McCluskey, the SOP mapper, and the
// decoder/ROM generators.

#include <gtest/gtest.h>

#include "crypto/present.h"
#include "netlist/builder.h"
#include "synth/anf.h"
#include "synth/decoder.h"
#include "synth/mapper.h"
#include "synth/qm.h"
#include "synth/truthtable.h"
#include "trace/prng.h"

namespace lpa {
namespace {

TEST(TruthTable, SetGetAndOnSet) {
  TruthTable t(4);
  EXPECT_EQ(t.size(), 16u);
  t.set(3, true);
  t.set(9, true);
  EXPECT_TRUE(t.get(3));
  EXPECT_FALSE(t.get(4));
  EXPECT_EQ(t.onCount(), 2u);
  EXPECT_EQ(t.onSet(), (std::vector<std::uint32_t>{3, 9}));
  t.set(3, false);
  EXPECT_EQ(t.onCount(), 1u);
}

TEST(TruthTable, FromFunctionAndFromLutBitAgree) {
  const std::vector<std::uint8_t> lut(kPresentSbox.begin(),
                                      kPresentSbox.end());
  for (int bit = 0; bit < 4; ++bit) {
    const TruthTable a = TruthTable::fromLutBit(4, lut, bit);
    const TruthTable b = TruthTable::fromFunction(4, [&](std::uint32_t x) {
      return ((kPresentSbox[x] >> bit) & 1u) != 0;
    });
    EXPECT_EQ(a, b);
  }
}

TEST(TruthTable, LargeTables) {
  const TruthTable t = TruthTable::fromFunction(
      12, [](std::uint32_t x) { return (x & 1u) != 0; });
  EXPECT_EQ(t.size(), 4096u);
  EXPECT_EQ(t.onCount(), 2048u);
}

TEST(Anf, MobiusIsAnInvolution) {
  Prng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    TruthTable t(5);
    for (std::uint32_t x = 0; x < t.size(); ++x) t.set(x, rng.bit());
    const auto anf = mobiusTransform(t);
    EXPECT_EQ(anfToTruthTable(5, anf), t);
  }
}

TEST(Anf, KnownAnfOfXorAndAnd) {
  // XOR of two vars: monomials {x0}, {x1}.
  const TruthTable x = TruthTable::fromFunction(
      2, [](std::uint32_t v) { return ((v & 1) ^ ((v >> 1) & 1)) != 0; });
  EXPECT_EQ(anfMonomials(x), (std::vector<std::uint32_t>{1, 2}));
  // AND: single monomial {x0 x1}.
  const TruthTable a = TruthTable::fromFunction(
      2, [](std::uint32_t v) { return (v & 3) == 3; });
  EXPECT_EQ(anfMonomials(a), (std::vector<std::uint32_t>{3}));
}

TEST(Anf, PresentSboxIsCubic) {
  const std::vector<std::uint8_t> lut(kPresentSbox.begin(),
                                      kPresentSbox.end());
  int maxDeg = 0;
  for (int bit = 0; bit < 4; ++bit) {
    maxDeg = std::max(maxDeg,
                      algebraicDegree(TruthTable::fromLutBit(4, lut, bit)));
  }
  EXPECT_EQ(maxDeg, 3);
}

TEST(Qm, CubeCoverAndLiterals) {
  const Cube c{0b0110, 0b0100};  // x1' x2
  EXPECT_TRUE(c.covers(0b0100));
  EXPECT_TRUE(c.covers(0b1101));
  EXPECT_FALSE(c.covers(0b0110));
  EXPECT_EQ(c.literals(), 2);
}

TEST(Qm, MinimizesSimpleFunctions) {
  // f = x0 (independent of x1): one cube, one literal.
  const TruthTable f = TruthTable::fromFunction(
      2, [](std::uint32_t x) { return (x & 1) != 0; });
  const auto sop = minimizeQm(f);
  ASSERT_EQ(sop.size(), 1u);
  EXPECT_EQ(sop[0].literals(), 1);
}

TEST(Qm, XorNeedsTwoCubes) {
  const TruthTable f = TruthTable::fromFunction(
      2, [](std::uint32_t x) { return ((x ^ (x >> 1)) & 1) != 0; });
  const auto sop = minimizeQm(f);
  EXPECT_EQ(sop.size(), 2u);
}

TEST(Qm, EmptyAndFullFunctions) {
  const TruthTable zero(3);
  EXPECT_TRUE(minimizeQm(zero).empty());
  const TruthTable one = TruthTable::fromFunction(
      3, [](std::uint32_t) { return true; });
  const auto sop = minimizeQm(one);
  ASSERT_EQ(sop.size(), 1u);
  EXPECT_EQ(sop[0].care, 0u);  // universal cube
}

TEST(Qm, DontCaresEnlargeCubes) {
  // On-set {0}, DC {1,2,3} over 2 vars: minimal cover is the universal cube.
  TruthTable on(2);
  on.set(0, true);
  TruthTable dc(2);
  dc.set(1, true);
  dc.set(2, true);
  dc.set(3, true);
  const auto sop = minimizeQm(on, &dc);
  ASSERT_EQ(sop.size(), 1u);
  EXPECT_EQ(sop[0].care, 0u);
}

class QmRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(QmRandomTest, CoverEqualsFunction) {
  Prng rng(static_cast<std::uint64_t>(GetParam()));
  const int nv = 3 + GetParam() % 5;  // 3..7 variables
  TruthTable t(nv);
  for (std::uint32_t x = 0; x < t.size(); ++x) t.set(x, rng.bit());
  const auto sop = minimizeQm(t);
  for (std::uint32_t x = 0; x < t.size(); ++x) {
    EXPECT_EQ(evalSop(sop, x), t.get(x)) << "x=" << x << " nv=" << nv;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, QmRandomTest,
                         ::testing::Range(0, 24));

class MapperRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MapperRandomTest, MappedSopMatchesTable) {
  Prng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const int nv = 2 + GetParam() % 5;
  TruthTable t(nv);
  for (std::uint32_t x = 0; x < t.size(); ++x) t.set(x, rng.bit());
  const auto sop = minimizeQm(t);

  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < nv; ++i) {
    ins.push_back(b.input(std::string("x").append(std::to_string(i))));
  }
  SharedComplements comp(b);
  b.output(mapSop(b, comp, ins, sop), "y");
  const Netlist nl = b.take();
  for (std::uint32_t x = 0; x < t.size(); ++x) {
    std::vector<std::uint8_t> in(static_cast<std::size_t>(nv));
    for (int i = 0; i < nv; ++i) {
      in[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((x >> i) & 1u);
    }
    EXPECT_EQ(nl.evaluateOutputs(in)[0], t.get(x) ? 1 : 0) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, MapperRandomTest,
                         ::testing::Range(0, 24));

TEST(Decoder, AndDecoderIsOneHot) {
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(b.input(std::string("x").append(std::to_string(i))));
  }
  SharedComplements comp(b);
  const auto lines = buildAndDecoder(b, comp, ins);
  for (std::size_t j = 0; j < lines.size(); ++j) {
    b.output(lines[j], std::string("d").append(std::to_string(j)));
  }
  const Netlist nl = b.take();
  for (std::uint32_t x = 0; x < 16; ++x) {
    std::vector<std::uint8_t> in;
    for (int i = 0; i < 4; ++i) {
      in.push_back(static_cast<std::uint8_t>((x >> i) & 1u));
    }
    const auto out = nl.evaluateOutputs(in);
    for (std::uint32_t j = 0; j < 16; ++j) {
      EXPECT_EQ(out[j], j == x ? 1 : 0) << "x=" << x << " line=" << j;
    }
  }
}

TEST(Decoder, NorDecoderIsOneHotAndNorOnly) {
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(b.input(std::string("x").append(std::to_string(i))));
  }
  SharedComplements comp(b);
  const auto lines = buildNorDecoder(b, comp, ins);
  for (std::size_t j = 0; j < lines.size(); ++j) {
    b.output(lines[j], std::string("d").append(std::to_string(j)));
  }
  const Netlist nl = b.take();
  for (const Gate& g : nl.gates()) {
    EXPECT_TRUE(g.type == GateType::Input || g.type == GateType::Inv ||
                g.type == GateType::Nor)
        << "unexpected cell " << gateTypeName(g.type);
  }
  for (std::uint32_t x = 0; x < 16; ++x) {
    std::vector<std::uint8_t> in;
    for (int i = 0; i < 4; ++i) {
      in.push_back(static_cast<std::uint8_t>((x >> i) & 1u));
    }
    const auto out = nl.evaluateOutputs(in);
    for (std::uint32_t j = 0; j < 16; ++j) {
      EXPECT_EQ(out[j], j == x ? 1 : 0) << "x=" << x << " line=" << j;
    }
  }
}

class NorRomOrTest : public ::testing::TestWithParam<int> {};

TEST_P(NorRomOrTest, MatchesPlainOr) {
  const int width = GetParam();
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < width; ++i) {
    ins.push_back(b.input(std::string("x").append(std::to_string(i))));
  }
  b.output(norRomOr(b, ins), "y");
  const Netlist nl = b.take();
  Prng rng(42);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> in;
    std::uint8_t expect = 0;
    for (int i = 0; i < width; ++i) {
      in.push_back(rng.bit());
      expect |= in.back();
    }
    EXPECT_EQ(nl.evaluateOutputs(in)[0], expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, NorRomOrTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 37, 128));

}  // namespace
}  // namespace lpa
