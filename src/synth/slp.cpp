#include "synth/slp.h"

#include <bit>
#include <random>
#include <stdexcept>

namespace lpa {

namespace {

const char* opName(SlpOp op) {
  switch (op) {
    case SlpOp::Xor:
      return "XOR";
    case SlpOp::And:
      return "AND";
    case SlpOp::Or:
      return "OR";
    case SlpOp::Not:
      return "NOT";
  }
  return "?";
}

std::uint16_t evalOp16(SlpOp op, std::uint16_t x, std::uint16_t y) {
  switch (op) {
    case SlpOp::Xor:
      return x ^ y;
    case SlpOp::And:
      return x & y;
    case SlpOp::Or:
      return x | y;
    case SlpOp::Not:
      return static_cast<std::uint16_t>(~x);
  }
  return 0;
}

}  // namespace

std::uint32_t Slp::eval(std::uint32_t x) const {
  std::vector<std::uint8_t> v(static_cast<std::size_t>(numInputs) +
                              steps.size());
  for (int i = 0; i < numInputs; ++i) {
    v[static_cast<std::size_t>(i)] = (x >> i) & 1u;
  }
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const SlpStep& st = steps[s];
    const std::uint8_t a = v[static_cast<std::size_t>(st.a)];
    const std::uint8_t b =
        st.op == SlpOp::Not ? 0 : v[static_cast<std::size_t>(st.b)];
    std::uint8_t r = 0;
    switch (st.op) {
      case SlpOp::Xor:
        r = a ^ b;
        break;
      case SlpOp::And:
        r = a & b;
        break;
      case SlpOp::Or:
        r = a | b;
        break;
      case SlpOp::Not:
        r = a ^ 1u;
        break;
    }
    v[static_cast<std::size_t>(numInputs) + s] = r;
  }
  std::uint32_t out = 0;
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    out |= static_cast<std::uint32_t>(v[static_cast<std::size_t>(outputs[k])])
           << k;
  }
  return out;
}

std::array<std::uint16_t, 4> Slp::truthTables4() const {
  if (numInputs != 4 || outputs.size() != 4) {
    throw std::logic_error("truthTables4 requires a 4->4 SLP");
  }
  std::array<std::uint16_t, 4> tt{0, 0, 0, 0};
  for (std::uint32_t x = 0; x < 16; ++x) {
    const std::uint32_t y = eval(x);
    for (int k = 0; k < 4; ++k) {
      if ((y >> k) & 1u) tt[static_cast<std::size_t>(k)] |=
          static_cast<std::uint16_t>(1u << x);
    }
  }
  return tt;
}

Slp Slp::pruned() const {
  std::vector<char> used(static_cast<std::size_t>(numInputs) + steps.size(),
                         0);
  for (int o : outputs) used[static_cast<std::size_t>(o)] = 1;
  for (std::size_t s = steps.size(); s-- > 0;) {
    if (!used[static_cast<std::size_t>(numInputs) + s]) continue;
    used[static_cast<std::size_t>(steps[s].a)] = 1;
    if (steps[s].op != SlpOp::Not) {
      used[static_cast<std::size_t>(steps[s].b)] = 1;
    }
  }
  Slp out;
  out.numInputs = numInputs;
  std::vector<int> remap(static_cast<std::size_t>(numInputs) + steps.size(),
                         -1);
  for (int i = 0; i < numInputs; ++i) remap[static_cast<std::size_t>(i)] = i;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    if (!used[static_cast<std::size_t>(numInputs) + s]) continue;
    SlpStep st = steps[s];
    st.a = remap[static_cast<std::size_t>(st.a)];
    if (st.op != SlpOp::Not) st.b = remap[static_cast<std::size_t>(st.b)];
    remap[static_cast<std::size_t>(numInputs) + s] =
        numInputs + static_cast<int>(out.steps.size());
    out.steps.push_back(st);
  }
  for (int o : outputs) {
    out.outputs.push_back(remap[static_cast<std::size_t>(o)]);
  }
  return out;
}

Slp::Profile Slp::profile() const {
  const Slp p = pruned();
  Profile prof;
  for (const SlpStep& st : p.steps) {
    switch (st.op) {
      case SlpOp::Xor:
        ++prof.xorCount;
        break;
      case SlpOp::And:
        ++prof.andCount;
        break;
      case SlpOp::Or:
        ++prof.orCount;
        break;
      case SlpOp::Not:
        ++prof.notCount;
        break;
    }
  }
  return prof;
}

std::vector<NetId> Slp::emit(NetlistBuilder& b,
                             const std::vector<NetId>& ins) const {
  if (static_cast<int>(ins.size()) != numInputs) {
    throw std::invalid_argument("SLP input count mismatch");
  }
  std::vector<NetId> nets(static_cast<std::size_t>(numInputs) + steps.size());
  for (int i = 0; i < numInputs; ++i) {
    nets[static_cast<std::size_t>(i)] = ins[static_cast<std::size_t>(i)];
  }
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const SlpStep& st = steps[s];
    const NetId a = nets[static_cast<std::size_t>(st.a)];
    NetId r = kInvalidNet;
    switch (st.op) {
      case SlpOp::Xor:
        r = b.xorGate(a, nets[static_cast<std::size_t>(st.b)]);
        break;
      case SlpOp::And:
        r = b.andGate({a, nets[static_cast<std::size_t>(st.b)]});
        break;
      case SlpOp::Or:
        r = b.orGate({a, nets[static_cast<std::size_t>(st.b)]});
        break;
      case SlpOp::Not:
        r = b.inv(a);
        break;
    }
    nets[static_cast<std::size_t>(numInputs) + s] = r;
  }
  std::vector<NetId> outs;
  outs.reserve(outputs.size());
  for (int o : outputs) outs.push_back(nets[static_cast<std::size_t>(o)]);
  return outs;
}

std::string Slp::toString() const {
  std::string out;
  auto name = [&](int v) {
    return v < numInputs
               ? std::string("x").append(std::to_string(v))
               : std::string("t").append(std::to_string(v - numInputs));
  };
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const SlpStep& st = steps[s];
    out.append("t")
        .append(std::to_string(s))
        .append(" = ")
        .append(opName(st.op))
        .append(" ")
        .append(name(st.a));
    if (st.op != SlpOp::Not) out.append(" ").append(name(st.b));
    out += '\n';
  }
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    out.append("y")
        .append(std::to_string(k))
        .append(" = ")
        .append(name(outputs[k]))
        .append("\n");
  }
  return out;
}

namespace {

struct Genome {
  std::vector<SlpStep> steps;
  std::array<int, 4> out;
};

int genomeError(const Genome& g, int numInputs,
                const std::array<std::uint16_t, 4>& inputTt,
                const std::array<std::uint16_t, 4>& targets,
                std::vector<std::uint16_t>& scratch) {
  for (int i = 0; i < numInputs; ++i) {
    scratch[static_cast<std::size_t>(i)] = inputTt[static_cast<std::size_t>(i)];
  }
  for (std::size_t s = 0; s < g.steps.size(); ++s) {
    const SlpStep& st = g.steps[s];
    scratch[static_cast<std::size_t>(numInputs) + s] = evalOp16(
        st.op, scratch[static_cast<std::size_t>(st.a)],
        st.op == SlpOp::Not ? 0 : scratch[static_cast<std::size_t>(st.b)]);
  }
  int err = 0;
  for (int k = 0; k < 4; ++k) {
    const std::uint16_t diff = static_cast<std::uint16_t>(
        scratch[static_cast<std::size_t>(g.out[static_cast<std::size_t>(k)])] ^
        targets[static_cast<std::size_t>(k)]);
    err += std::popcount(diff);
  }
  return err;
}

int genomeCost(const Genome& g, int numInputs, int nonlinearWeight) {
  std::vector<char> used(static_cast<std::size_t>(numInputs) + g.steps.size(),
                         0);
  for (int o : g.out) used[static_cast<std::size_t>(o)] = 1;
  int gates = 0;
  int nonlinear = 0;
  for (std::size_t s = g.steps.size(); s-- > 0;) {
    if (!used[static_cast<std::size_t>(numInputs) + s]) continue;
    ++gates;
    if (g.steps[s].op == SlpOp::And || g.steps[s].op == SlpOp::Or) {
      ++nonlinear;
    }
    used[static_cast<std::size_t>(g.steps[s].a)] = 1;
    if (g.steps[s].op != SlpOp::Not) {
      used[static_cast<std::size_t>(g.steps[s].b)] = 1;
    }
  }
  return gates + nonlinearWeight * nonlinear;
}

}  // namespace

std::optional<Slp> searchSlp4(const std::array<std::uint16_t, 4>& targets,
                              const SlpSearchOptions& opts) {
  const int numInputs = 4;
  std::array<std::uint16_t, 4> inputTt{0, 0, 0, 0};
  for (std::uint32_t x = 0; x < 16; ++x) {
    for (int b = 0; b < 4; ++b) {
      if ((x >> b) & 1u) {
        inputTt[static_cast<std::size_t>(b)] |=
            static_cast<std::uint16_t>(1u << x);
      }
    }
  }
  std::mt19937_64 rng(opts.seed);
  const int ng = opts.genomeLength;
  auto randStep = [&](int idx) {
    SlpStep st;
    st.op = static_cast<SlpOp>(rng() % 4);
    const int lim = numInputs + idx;
    st.a = static_cast<int>(rng() % static_cast<std::uint64_t>(lim));
    st.b = static_cast<int>(rng() % static_cast<std::uint64_t>(lim));
    return st;
  };

  Genome best;
  best.steps.resize(static_cast<std::size_t>(ng));
  for (int i = 0; i < ng; ++i) {
    best.steps[static_cast<std::size_t>(i)] = randStep(i);
  }
  for (int k = 0; k < 4; ++k) {
    best.out[static_cast<std::size_t>(k)] =
        static_cast<int>(rng() % static_cast<std::uint64_t>(numInputs + ng));
  }

  std::vector<std::uint16_t> scratch(
      static_cast<std::size_t>(numInputs + ng));
  int bestErr = genomeError(best, numInputs, inputTt, targets, scratch);
  int bestCost = bestErr == 0
                     ? genomeCost(best, numInputs, opts.nonlinearWeight)
                     : 1 << 30;

  std::optional<Genome> bestExact;
  int bestExactCost = 1 << 30;
  if (bestErr == 0) {
    bestExact = best;
    bestExactCost = bestCost;
  }

  for (std::uint64_t it = 0; it < opts.maxIterations; ++it) {
    Genome cand = best;
    const int numMut = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < numMut; ++m) {
      if (rng() % 8 == 0) {
        cand.out[rng() % 4] = static_cast<int>(
            rng() % static_cast<std::uint64_t>(numInputs + ng));
      } else {
        const int i = static_cast<int>(rng() % static_cast<std::uint64_t>(ng));
        const int what = static_cast<int>(rng() % 3);
        SlpStep& st = cand.steps[static_cast<std::size_t>(i)];
        if (what == 0) {
          st.op = static_cast<SlpOp>(rng() % 4);
        } else if (what == 1) {
          st.a = static_cast<int>(rng() %
                                  static_cast<std::uint64_t>(numInputs + i));
        } else {
          st.b = static_cast<int>(rng() %
                                  static_cast<std::uint64_t>(numInputs + i));
        }
      }
    }
    const int err = genomeError(cand, numInputs, inputTt, targets, scratch);
    if (err > bestErr) continue;
    if (err < bestErr) {
      bestErr = err;
      best = cand;
      if (err == 0) {
        bestCost = genomeCost(best, numInputs, opts.nonlinearWeight);
        if (bestCost < bestExactCost) {
          bestExactCost = bestCost;
          bestExact = best;
        }
      }
      continue;
    }
    if (bestErr > 0) {
      best = cand;  // sideways move while still inexact
      continue;
    }
    const int cost = genomeCost(cand, numInputs, opts.nonlinearWeight);
    if (cost <= bestCost) {
      bestCost = cost;
      best = cand;
      if (cost < bestExactCost) {
        bestExactCost = cost;
        bestExact = best;
      }
    }
  }

  if (!bestExact) return std::nullopt;
  Slp slp;
  slp.numInputs = numInputs;
  slp.steps = bestExact->steps;
  slp.outputs.assign(bestExact->out.begin(), bestExact->out.end());
  return slp.pruned();
}

}  // namespace lpa
