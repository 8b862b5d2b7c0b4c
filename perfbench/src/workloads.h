#pragma once
// The benchmark's three workloads and its per-layer probes.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "fault/campaign.h"

namespace perfbench {

struct Workload {
  const char* name;
  /// One repetition. A null tracer runs the calls users make
  /// (estimateAt, adaptiveAcquireAt, runFaultCampaign); a tracer runs the
  /// same work broken into the public calls of each layer, one span each.
  Iteration (*run)(const Context& ctx, Tracer* tracer, Checks& checks);
  /// Correctness checks that hold on any seed, run once per benchmark run
  /// against the first repetition's outputs (nullptr: none beyond the
  /// repetition check). Returns further seed-determined outputs to pin.
  std::map<std::string, std::string> (*verify)(const Context& ctx,
                                               const Iteration& first,
                                               Checks& checks);
  /// Per-class trace budget of one acquisition call in this workload; the
  /// acquisition probes use it so their numbers describe this regime.
  std::uint32_t acquisitionTracesPerClass;
};

/// nullptr for an unknown name.
const Workload* findWorkload(const std::string& name);

/// What runFaultCampaign needs for one style: the design, its models and
/// the stuck-at faults on its mask wires.
struct CampaignInputs {
  std::unique_ptr<lpa::MaskedSbox> sbox;
  std::optional<lpa::DelayModel> delays;
  std::optional<lpa::PowerModel> power;
  std::vector<lpa::FaultSpec> faults;
};
CampaignInputs campaignInputs(lpa::SboxStyle s, Tracer* tracer);
lpa::FaultCampaignConfig faultConfig(const Context& ctx,
                                     std::uint32_t threads);

/// Times each layer's public calls for every style and returns the
/// per-layer metrics by name (see perfbench/workloads.json).
std::map<std::string, double> runLayerProbes(const Context& ctx,
                                             const Workload& workload,
                                             Tracer& tracer, Checks& checks);

}  // namespace perfbench
