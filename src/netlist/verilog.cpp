#include "netlist/verilog.h"

#include <cctype>

namespace lpa {

namespace {

std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

const char* primitiveOf(GateType t) {
  switch (t) {
    case GateType::Buf:
      return "buf";
    case GateType::Inv:
      return "not";
    case GateType::And:
      return "and";
    case GateType::Or:
      return "or";
    case GateType::Nand:
      return "nand";
    case GateType::Nor:
      return "nor";
    case GateType::Xor:
      return "xor";
    case GateType::Xnor:
      return "xnor";
    default:
      return nullptr;
  }
}

}  // namespace

std::string toVerilog(const Netlist& nl, const std::string& moduleName) {
  std::string v = "module " + sanitize(moduleName) + "(";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    v += sanitize(nl.inputName(i)) + ", ";
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    v += sanitize(nl.outputName(i));
    if (i + 1 < nl.outputs().size()) v += ", ";
  }
  v += ");\n";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    v += "  input " + sanitize(nl.inputName(i)) + ";\n";
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    v += "  output " + sanitize(nl.outputName(i)) + ";\n";
  }

  auto wireName = [&](NetId id) {
    return std::string("w").append(std::to_string(id));
  };

  for (NetId id = 0; id < nl.numGates(); ++id) {
    if (nl.gate(id).type != GateType::Input) {
      v += "  wire " + wireName(id) + ";\n";
    }
  }
  // Tie input wires to port names.
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    v += "  wire " + wireName(nl.inputs()[i]) + ";\n";
    v += "  assign " + wireName(nl.inputs()[i]) + " = " +
         sanitize(nl.inputName(i)) + ";\n";
  }

  std::size_t instance = 0;
  for (NetId id = 0; id < nl.numGates(); ++id) {
    const Gate& g = nl.gate(id);
    if (g.type == GateType::Input) continue;
    if (g.type == GateType::Const0 || g.type == GateType::Const1) {
      v += "  assign " + wireName(id) +
           (g.type == GateType::Const0 ? " = 1'b0;\n" : " = 1'b1;\n");
      continue;
    }
    const char* prim = primitiveOf(g.type);
    v += "  ";
    v += prim;
    v += " g" + std::to_string(instance++) + "(" + wireName(id);
    for (int i = 0; i < g.numFanin; ++i) {
      v += ", " + wireName(g.fanin[static_cast<std::size_t>(i)]);
    }
    v += ");\n";
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    v += "  assign " + sanitize(nl.outputName(i)) + " = " +
         wireName(nl.outputs()[i]) + ";\n";
  }
  v += "endmodule\n";
  return v;
}

}  // namespace lpa
