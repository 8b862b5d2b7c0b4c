// Threshold implementation (TI) of the PRESENT S-box.
//
// The S-box is cubic (degree 3), so the ANF contains terms of order 3 and a
// d+1 = 4-share realization is required (the paper synthesizes a fully
// combinational TI netlist with 4 shares and 12 random input bits = 3 mask
// nibbles).
//
// Construction: *direct sharing* of the ANF. Every input variable x_v is
// split into 4 shares; each ANF monomial x_a x_b x_c expands into the
// products of share sums, and every expanded product over share indices
// {j1, j2, j3} is assigned to output share i = min({0,1,2,3} \ {j1,j2,j3}),
// which always exists because at most 3 distinct indices occur. Hence output
// share i never depends on share i of ANY input: the non-completeness
// property, which makes glitches unable to combine all shares of a secret.
// Correctness holds because the assignment partitions the full expansion.
// (Uniformity of the output sharing is not enforced, as in the paper, whose
// TI netlist visibly leaks through its sheer size.)
//
// Identical share-products are built once and reused across output bits and
// shares (standard-cell CSE), giving the Table-I-scale netlist of hundreds
// of 2-3-input ANDs and XOR trees; constant ANF terms fold into the final
// XOR of output share 0 as an XNOR, mirroring the paper's gate profile
// (2 XNOR for the two S-box bits with constant term).

#include <algorithm>
#include <array>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <utility>

#include "crypto/present.h"
#include "netlist/builder.h"
#include "sboxes/encoding.h"
#include "sboxes/impl_factories.h"
#include "synth/anf.h"
#include "synth/truthtable.h"

namespace lpa::detail {

namespace {

constexpr int kShares = 4;

class TiSbox final : public MaskedSbox {
 public:
  TiSbox() {
    NetlistBuilder b;
    // share[j][v]: share j of input bit v.
    std::array<std::array<NetId, 4>, kShares> share{};
    for (int j = 0; j < kShares; ++j) {
      for (int v = 0; v < 4; ++v) {
        share[static_cast<std::size_t>(j)][static_cast<std::size_t>(v)] =
            b.input(std::string("s")
                        .append(std::to_string(j))
                        .append("_")
                        .append(std::to_string(v)));
      }
    }

    // Shared-product cache: sorted (var, shareIdx) literal lists -> net.
    std::map<std::vector<std::pair<int, int>>, NetId> productCache;
    auto product = [&](std::vector<std::pair<int, int>> lits) -> NetId {
      std::sort(lits.begin(), lits.end());
      lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
      auto it = productCache.find(lits);
      if (it != productCache.end()) return it->second;
      std::vector<NetId> nets;
      nets.reserve(lits.size());
      for (const auto& [v, j] : lits) {
        nets.push_back(
            share[static_cast<std::size_t>(j)][static_cast<std::size_t>(v)]);
      }
      const NetId net = nets.size() == 1 ? nets[0] : b.andGate(nets);
      productCache.emplace(std::move(lits), net);
      return net;
    };

    const std::vector<std::uint8_t> lut(kPresentSbox.begin(),
                                        kPresentSbox.end());
    for (int bit = 0; bit < 4; ++bit) {
      const TruthTable tt = TruthTable::fromLutBit(4, lut, bit);
      const std::vector<std::uint32_t> monomials =
          anfMonomials(tt);

      // terms[i]: nets XORed into output share i of this bit.
      std::array<std::vector<NetId>, kShares> terms;
      bool constantTerm = false;
      for (std::uint32_t mono : monomials) {
        std::vector<int> vars;
        for (int v = 0; v < 4; ++v) {
          if ((mono >> v) & 1u) vars.push_back(v);
        }
        if (vars.empty()) {
          constantTerm = true;
          continue;
        }
        expandMonomial(vars, terms, product);
      }

      for (int i = 0; i < kShares; ++i) {
        const bool applyConst = constantTerm && i == 0;
        b.output(combine(b, terms[static_cast<std::size_t>(i)], applyConst),
                 std::string("y")
                     .append(std::to_string(bit))
                     .append("_")
                     .append(std::to_string(i)));
      }
    }
    nl_ = b.take();
  }

  SboxStyle style() const override { return SboxStyle::Ti; }
  int randomBits() const override { return 12; }  // three mask nibbles

  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    const std::uint8_t m1 = rng.nibble();
    const std::uint8_t m2 = rng.nibble();
    const std::uint8_t m3 = rng.nibble();
    std::vector<std::uint8_t> in;
    in.reserve(nl_.inputs().size());
    appendNibbleBits(in, static_cast<std::uint8_t>(plain ^ m1 ^ m2 ^ m3));
    appendNibbleBits(in, m1);
    appendNibbleBits(in, m2);
    appendNibbleBits(in, m3);
    return in;
  }

  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    (void)inputs;
    std::uint8_t y = 0;
    for (int bit = 0; bit < 4; ++bit) {
      std::uint8_t v = 0;
      for (int i = 0; i < kShares; ++i) {
        v = static_cast<std::uint8_t>(
            v ^ outputs[static_cast<std::size_t>(kShares * bit + i)]);
      }
      y |= static_cast<std::uint8_t>((v & 1u) << bit);
    }
    return y;
  }

 private:
  /// Which output share receives a product over the given share indices:
  /// the smallest index not occurring among them (non-completeness).
  static int assignShare(std::initializer_list<int> used) {
    for (int i = 0; i < kShares; ++i) {
      bool hit = false;
      for (int u : used) {
        if (u == i) {
          hit = true;
          break;
        }
      }
      if (!hit) return i;
    }
    throw std::logic_error("no free share index (degree too high?)");
  }

  template <typename ProductFn>
  static void expandMonomial(const std::vector<int>& vars,
                             std::array<std::vector<NetId>, kShares>& terms,
                             ProductFn&& product) {
    const int d = static_cast<int>(vars.size());
    if (d == 1) {
      for (int j = 0; j < kShares; ++j) {
        terms[static_cast<std::size_t>(assignShare({j}))].push_back(
            product({{vars[0], j}}));
      }
    } else if (d == 2) {
      for (int j = 0; j < kShares; ++j) {
        for (int k = 0; k < kShares; ++k) {
          terms[static_cast<std::size_t>(assignShare({j, k}))].push_back(
              product({{vars[0], j}, {vars[1], k}}));
        }
      }
    } else if (d == 3) {
      for (int j = 0; j < kShares; ++j) {
        for (int k = 0; k < kShares; ++k) {
          for (int l = 0; l < kShares; ++l) {
            terms[static_cast<std::size_t>(assignShare({j, k, l}))].push_back(
                product({{vars[0], j}, {vars[1], k}, {vars[2], l}}));
          }
        }
      }
    } else {
      throw std::logic_error("PRESENT S-box ANF degree exceeds 3");
    }
  }

  /// XOR-combines the terms of one output share; `toggle` folds a constant
  /// 1 in via a final XNOR (or INV/CONST1 for degenerate term counts).
  static NetId combine(NetlistBuilder& b, const std::vector<NetId>& terms,
                       bool toggle) {
    if (terms.empty()) return toggle ? b.const1() : b.const0();
    if (terms.size() == 1) {
      return toggle ? b.inv(terms[0]) : b.buf(terms[0]);
    }
    if (!toggle) return b.xorTree(terms);
    std::vector<NetId> head(terms.begin(), terms.end() - 1);
    const NetId rest = head.size() == 1 ? head[0] : b.xorTree(head);
    return b.xnorGate(rest, terms.back());
  }
};

}  // namespace

std::unique_ptr<MaskedSbox> makeTiSbox() {
  return std::make_unique<TiSbox>();
}

}  // namespace lpa::detail
