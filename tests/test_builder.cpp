#include "netlist/builder.h"

#include <gtest/gtest.h>

#include "synth/cells.h"

namespace lpa {
namespace {

// Exhaustively compares a built reduction tree against the reference
// reduction for every input assignment.
void checkReduction(GateType type, int width, int maxFanin) {
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < width; ++i) {
    ins.push_back(b.input(std::string("x").append(std::to_string(i))));
  }
  NetId out = kInvalidNet;
  switch (type) {
    case GateType::And:
      out = b.andGate(ins, maxFanin);
      break;
    case GateType::Or:
      out = b.orGate(ins, maxFanin);
      break;
    case GateType::Xor:
      out = b.xorTree(ins);
      break;
    default:
      FAIL() << "unsupported";
  }
  b.output(out, "y");
  const Netlist nl = b.take();
  for (std::uint32_t x = 0; x < (1u << width); ++x) {
    std::vector<std::uint8_t> in(static_cast<std::size_t>(width));
    std::uint8_t expect = type == GateType::And ? 1 : 0;
    for (int i = 0; i < width; ++i) {
      in[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((x >> i) & 1u);
      switch (type) {
        case GateType::And:
          expect &= in[static_cast<std::size_t>(i)];
          break;
        case GateType::Or:
          expect |= in[static_cast<std::size_t>(i)];
          break;
        default:
          expect ^= in[static_cast<std::size_t>(i)];
          break;
      }
    }
    EXPECT_EQ(nl.evaluateOutputs(in)[0], expect)
        << gateTypeName(type) << " width=" << width << " x=" << x;
  }
}

class ReductionTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReductionTest, AndOrXorTreesAreCorrect) {
  const auto [width, maxFanin] = GetParam();
  checkReduction(GateType::And, width, maxFanin);
  checkReduction(GateType::Or, width, maxFanin);
  checkReduction(GateType::Xor, width, maxFanin);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndFanins, ReductionTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 9, 16),
                       ::testing::Values(2, 3, 4)));

TEST(Builder, XorAoiMatchesXor) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId c = b.input("b");
  b.output(b.xorAoi(a, c), "y");
  const Netlist nl = b.take();
  for (int x = 0; x < 4; ++x) {
    const std::uint8_t va = static_cast<std::uint8_t>(x & 1);
    const std::uint8_t vb = static_cast<std::uint8_t>((x >> 1) & 1);
    EXPECT_EQ(nl.evaluateOutputs({va, vb})[0], va ^ vb);
  }
}

TEST(Builder, InvChainPreservesOrFlipsPolarity) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  b.output(b.invChain(a, 6), "even");
  b.output(b.invChain(a, 3, /*allowOdd=*/true), "odd");
  const Netlist nl = b.take();
  EXPECT_EQ(nl.evaluateOutputs({1})[0], 1);
  EXPECT_EQ(nl.evaluateOutputs({1})[1], 0);
  EXPECT_EQ(nl.evaluateOutputs({0})[0], 0);
}

TEST(Builder, InvChainRejectsOddWithoutOptIn) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  EXPECT_THROW(b.invChain(a, 3), std::invalid_argument);
  EXPECT_THROW(b.invChain(a, -2), std::invalid_argument);
}

TEST(Builder, EmptyGateListsThrow) {
  NetlistBuilder b;
  EXPECT_THROW(b.andGate({}), std::invalid_argument);
  EXPECT_THROW(b.xorTree({}), std::invalid_argument);
}

TEST(SharedComplements, OneInverterPerNet) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  SharedComplements comp(b);
  const NetId n1 = comp.of(a);
  const NetId n2 = comp.of(a);
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(comp.literal(a, true), a);
  EXPECT_EQ(comp.literal(a, false), n1);
}

TEST(Cells, Mux2AoiSelects) {
  NetlistBuilder b;
  const NetId s = b.input("s");
  const NetId a0 = b.input("a0");
  const NetId a1 = b.input("a1");
  SharedComplements comp(b);
  b.output(mux2Aoi(b, comp, s, a0, a1), "y");
  const Netlist nl = b.take();
  for (int x = 0; x < 8; ++x) {
    const std::uint8_t vs = static_cast<std::uint8_t>(x & 1);
    const std::uint8_t v0 = static_cast<std::uint8_t>((x >> 1) & 1);
    const std::uint8_t v1 = static_cast<std::uint8_t>((x >> 2) & 1);
    EXPECT_EQ(nl.evaluateOutputs({vs, v0, v1})[0], vs ? v1 : v0);
  }
}

}  // namespace
}  // namespace lpa
