#include "sim/vcd.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace lpa {

namespace {

/// Compact VCD identifier for index k (printable ASCII 33..126).
std::string vcdId(std::size_t k) {
  std::string id;
  do {
    id.push_back(static_cast<char>(33 + k % 94));
    k /= 94;
  } while (k > 0);
  return id;
}

}  // namespace

std::string toVcd(const Netlist& nl,
                  const std::vector<std::uint8_t>& initialState,
                  const std::vector<Transition>& transitions,
                  const std::string& topName) {
  if (initialState.size() != nl.numGates()) {
    throw std::invalid_argument("initial state size mismatch");
  }

  // Select nets: all primary I/O plus every toggling net.
  std::vector<char> selected(nl.numGates(), 0);
  for (NetId in : nl.inputs()) selected[in] = 1;
  for (NetId out : nl.outputs()) selected[out] = 1;
  for (const Transition& t : transitions) selected[t.net] = 1;

  // Stable names: port names for I/O, w<k> for internal nets.
  std::unordered_map<NetId, std::string> names;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    names[nl.inputs()[i]] = nl.inputName(i);
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    names.emplace(nl.outputs()[i], nl.outputName(i));
  }

  std::string v;
  v += "$timescale 1ps $end\n$scope module " + topName + " $end\n";
  std::unordered_map<NetId, std::string> ids;
  std::size_t k = 0;
  for (NetId net = 0; net < nl.numGates(); ++net) {
    if (!selected[net]) continue;
    const std::string id = vcdId(k++);
    ids[net] = id;
    auto it = names.find(net);
    const std::string name =
        it != names.end() ? it->second
                          : std::string("w").append(std::to_string(net));
    v += "$var wire 1 " + id + " " + name + " $end\n";
  }
  v += "$upscope $end\n$enddefinitions $end\n#0\n$dumpvars\n";
  for (NetId net = 0; net < nl.numGates(); ++net) {
    if (!selected[net]) continue;
    v += std::string(initialState[net] ? "1" : "0") + ids[net] + "\n";
  }
  v += "$end\n";

  long lastTime = -1;
  for (const Transition& t : transitions) {
    const long time = std::lround(t.timePs);
    if (time != lastTime) {
      v.append("#").append(std::to_string(time)).append("\n");
      lastTime = time;
    }
    v += std::string(t.newValue ? "1" : "0") + ids[t.net] + "\n";
  }
  return v;
}

}  // namespace lpa
