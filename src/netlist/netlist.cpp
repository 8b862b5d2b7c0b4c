#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>

namespace lpa {

NetId Netlist::addGate(GateType type, const std::vector<NetId>& fanins) {
  const FaninRange range = gateFaninRange(type);
  const int n = static_cast<int>(fanins.size());
  if (n < range.min || n > range.max) {
    throw std::invalid_argument(std::string("bad fanin count for ") +
                                std::string(gateTypeName(type)));
  }
  const NetId id = static_cast<NetId>(gates_.size());
  Gate g;
  g.type = type;
  g.numFanin = static_cast<std::uint8_t>(n);
  for (int i = 0; i < n; ++i) {
    if (fanins[i] >= id) {
      throw std::invalid_argument("fanin references a gate not yet defined");
    }
    g.fanin[static_cast<std::size_t>(i)] = fanins[i];
  }
  gates_.push_back(g);
  fanoutCache_.clear();
  return id;
}

void Netlist::replaceGate(NetId id, GateType type,
                          const std::vector<NetId>& fanins) {
  if (id >= gates_.size()) {
    throw std::invalid_argument("replaceGate: no such gate");
  }
  if (type == GateType::Input) {
    throw std::invalid_argument("replaceGate cannot create primary inputs");
  }
  const FaninRange range = gateFaninRange(type);
  const int n = static_cast<int>(fanins.size());
  if (n < range.min || n > range.max) {
    throw std::invalid_argument(std::string("bad fanin count for ") +
                                std::string(gateTypeName(type)));
  }
  Gate g;
  g.type = type;
  g.numFanin = static_cast<std::uint8_t>(n);
  for (int i = 0; i < n; ++i) {
    if (fanins[i] >= gates_.size()) {
      throw std::invalid_argument("replaceGate: fanin references missing net");
    }
    g.fanin[static_cast<std::size_t>(i)] = fanins[i];
  }
  gates_[id] = g;
  fanoutCache_.clear();
}

bool Netlist::isIndexOrdered() const {
  for (NetId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    for (int i = 0; i < g.numFanin; ++i) {
      if (g.fanin[static_cast<std::size_t>(i)] >= id) return false;
    }
  }
  return true;
}

NetId Netlist::addInput(std::string name) {
  const NetId id = addGate(GateType::Input, {});
  inputs_.push_back(id);
  inputIndex_.emplace(name, id);
  inputNames_.push_back(std::move(name));
  return id;
}

void Netlist::markOutput(NetId net, std::string name) {
  if (net >= gates_.size()) {
    throw std::invalid_argument("output net does not exist");
  }
  outputs_.push_back(net);
  outputIndex_.emplace(name, net);
  outputNames_.push_back(std::move(name));
}

NetId Netlist::inputByName(const std::string& name) const {
  auto it = inputIndex_.find(name);
  if (it == inputIndex_.end()) {
    throw std::invalid_argument("unknown input: " + name);
  }
  return it->second;
}

NetId Netlist::outputByName(const std::string& name) const {
  auto it = outputIndex_.find(name);
  if (it == outputIndex_.end()) {
    throw std::invalid_argument("unknown output: " + name);
  }
  return it->second;
}

const std::vector<std::uint32_t>& Netlist::fanoutCounts() const {
  if (fanoutCache_.size() != gates_.size()) {
    fanoutCache_.assign(gates_.size(), 0);
    for (const Gate& g : gates_) {
      for (int i = 0; i < g.numFanin; ++i) {
        ++fanoutCache_[g.fanin[static_cast<std::size_t>(i)]];
      }
    }
  }
  return fanoutCache_;
}

std::vector<std::uint8_t> Netlist::evaluate(
    const std::vector<std::uint8_t>& inputValues) const {
  if (inputValues.size() != inputs_.size()) {
    throw std::invalid_argument("wrong number of input values");
  }
  std::vector<std::uint8_t> val(gates_.size(), 0);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    val[inputs_[i]] = inputValues[i] & 1u;
  }
  std::array<std::uint8_t, kMaxFanin> in{};
  for (NetId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (g.type == GateType::Input) continue;
    for (int i = 0; i < g.numFanin; ++i) {
      in[static_cast<std::size_t>(i)] =
          val[g.fanin[static_cast<std::size_t>(i)]];
    }
    val[id] = evalGate(g, in);
  }
  return val;
}

std::vector<std::uint8_t> Netlist::evaluateOutputs(
    const std::vector<std::uint8_t>& inputValues) const {
  const std::vector<std::uint8_t> val = evaluate(inputValues);
  std::vector<std::uint8_t> out(outputs_.size());
  for (std::size_t i = 0; i < outputs_.size(); ++i) out[i] = val[outputs_[i]];
  return out;
}

std::vector<std::uint32_t> Netlist::depths() const {
  std::vector<std::uint32_t> depth(gates_.size(), 0);
  for (NetId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (isSourceGate(g.type)) continue;
    std::uint32_t d = 0;
    for (int i = 0; i < g.numFanin; ++i) {
      d = std::max(d, depth[g.fanin[static_cast<std::size_t>(i)]]);
    }
    depth[id] = d + 1;
  }
  return depth;
}

std::uint32_t Netlist::criticalPathDepth() const {
  const std::vector<std::uint32_t> depth = depths();
  std::uint32_t best = 0;
  for (NetId out : outputs_) best = std::max(best, depth[out]);
  return best;
}

}  // namespace lpa
