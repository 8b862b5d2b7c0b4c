#include "synth/slp.h"

#include <gtest/gtest.h>

#include "crypto/present.h"
#include "netlist/builder.h"
#include "sboxes/opt_sbox.h"

namespace lpa {
namespace {

TEST(Slp, OptProgramComputesPresentSbox) {
  const Slp& opt = optPresentSboxSlp();
  for (std::uint32_t x = 0; x < 16; ++x) {
    EXPECT_EQ(opt.eval(x), kPresentSbox[x]) << "x=" << x;
  }
}

TEST(Slp, OptProgramHasPaperTableIProfile) {
  // Table I "LUT-OPT": 2 AND, 2 OR, 9 XOR, 1 INV = 14 gates.
  const Slp::Profile p = optPresentSboxSlp().profile();
  EXPECT_EQ(p.xorCount, 9);
  EXPECT_EQ(p.andCount, 2);
  EXPECT_EQ(p.orCount, 2);
  EXPECT_EQ(p.notCount, 1);
  EXPECT_EQ(p.total(), 14);
  EXPECT_EQ(p.nonlinear(), 4);
}

TEST(Slp, TruthTables4MatchesEval) {
  const auto tts = optPresentSboxSlp().truthTables4();
  for (std::uint32_t x = 0; x < 16; ++x) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ((tts[static_cast<std::size_t>(k)] >> x) & 1u,
                (optPresentSboxSlp().eval(x) >> k) & 1u);
    }
  }
}

TEST(Slp, PrunedRemovesDeadSteps) {
  Slp s;
  s.numInputs = 2;
  s.steps = {
      {SlpOp::Xor, 0, 1},  // t0 (live)
      {SlpOp::And, 0, 1},  // t1 (dead)
      {SlpOp::Not, 2, 0},  // t2 = ~t0 (live)
  };
  s.outputs = {4};  // t2
  const Slp p = s.pruned();
  EXPECT_EQ(p.steps.size(), 2u);
  for (std::uint32_t x = 0; x < 4; ++x) EXPECT_EQ(p.eval(x), s.eval(x));
}

TEST(Slp, EmitIntoNetlistMatchesEval) {
  const Slp& opt = optPresentSboxSlp();
  NetlistBuilder b;
  std::vector<NetId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(b.input(std::string("x").append(std::to_string(i))));
  }
  const auto outs = opt.emit(b, ins);
  for (std::size_t k = 0; k < outs.size(); ++k) {
    b.output(outs[k], std::string("y").append(std::to_string(k)));
  }
  const Netlist nl = b.take();
  for (std::uint32_t x = 0; x < 16; ++x) {
    std::vector<std::uint8_t> in;
    for (int i = 0; i < 4; ++i) {
      in.push_back(static_cast<std::uint8_t>((x >> i) & 1u));
    }
    const auto out = nl.evaluateOutputs(in);
    std::uint32_t y = 0;
    for (int k = 0; k < 4; ++k) {
      y |= static_cast<std::uint32_t>(out[static_cast<std::size_t>(k)]) << k;
    }
    EXPECT_EQ(y, kPresentSbox[x]);
  }
}

TEST(Slp, ToStringListsStepsAndOutputs) {
  const std::string s = optPresentSboxSlp().toString();
  EXPECT_NE(s.find("XOR"), std::string::npos);
  EXPECT_NE(s.find("y3"), std::string::npos);
}

TEST(SlpSearch, FindsEasyFunctionQuickly) {
  // Target: y_k = x_k ^ x_{(k+1)%4} -- pure XOR layer, trivially reachable.
  std::array<std::uint16_t, 4> targets{};
  for (std::uint32_t x = 0; x < 16; ++x) {
    for (int k = 0; k < 4; ++k) {
      const std::uint32_t bit = ((x >> k) ^ (x >> ((k + 1) % 4))) & 1u;
      if (bit) targets[static_cast<std::size_t>(k)] |=
          static_cast<std::uint16_t>(1u << x);
    }
  }
  SlpSearchOptions opts;
  opts.genomeLength = 12;
  opts.maxIterations = 500'000;
  opts.seed = 3;
  const auto found = searchSlp4(targets, opts);
  ASSERT_TRUE(found.has_value());
  for (std::uint32_t x = 0; x < 16; ++x) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ((found->eval(x) >> k) & 1u,
                (targets[static_cast<std::size_t>(k)] >> x) & 1u);
    }
  }
  // A pure XOR target should be found without nonlinear gates.
  EXPECT_EQ(found->profile().nonlinear(), 0);
}

TEST(SlpSearch, ReturnsNulloptWhenHopeless) {
  // One gate cannot compute the full S-box.
  std::array<std::uint16_t, 4> targets{};
  for (std::uint32_t x = 0; x < 16; ++x) {
    for (int k = 0; k < 4; ++k) {
      if ((kPresentSbox[x] >> k) & 1u) {
        targets[static_cast<std::size_t>(k)] |=
            static_cast<std::uint16_t>(1u << x);
      }
    }
  }
  SlpSearchOptions opts;
  opts.genomeLength = 1;
  opts.maxIterations = 20'000;
  EXPECT_FALSE(searchSlp4(targets, opts).has_value());
}

}  // namespace
}  // namespace lpa
