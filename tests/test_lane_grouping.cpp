// Lane-grouping suite.
//
// On the batch engine an acquisition call cuts its distinct stimuli, in
// first-occurrence order, into windows of whole lane groups — 64 lanes, or
// one group per worker in a call too short to give each worker 64 — and
// runs a long enough window's lanes sorted by final encoding
// (trace/acquisition.h, "Lane groups"). These tests pin down what the
// sort must not change — every trace, on every engine, thread count and
// slicing — what it is for — fewer waves where lanes end in the same
// state — and how a failure inside a sorted window is reported: at the
// lowest trace it loses, after every earlier trace of the window.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "crypto/present.h"
#include "obs/metrics.h"
#include "sim/batch_sim.h"
#include "sim/compiled_design.h"
#include "trace/acquisition.h"
#include "trace/sharded_pool.h"

namespace lpa {
namespace {

/// Bitwise equality of two trace sets (labels and samples).
void expectIdentical(const TraceSet& a, const TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.numSamples(), b.numSamples());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.label(i), b.label(i)) << "trace " << i;
    for (std::uint32_t s = 0; s < a.numSamples(); ++s) {
      ASSERT_EQ(a.trace(i)[s], b.trace(i)[s])
          << "trace " << i << " sample " << s;
    }
  }
}

/// One distinct stimulus of an acquisition call: its stimulus (noise seed
/// 0), its first trace and how many traces use it.
struct Distinct {
  TraceStimulus s;
  std::size_t first = 0;
  std::size_t uses = 0;
};

/// The distinct (init, fin, expected) triples of acquire(cfg) for `sbox`,
/// in first-occurrence order.
std::vector<Distinct> distinctStimuli(const MaskedSbox& sbox,
                                      const AcquisitionConfig& cfg) {
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  std::map<std::tuple<std::vector<std::uint8_t>, std::vector<std::uint8_t>,
                      std::uint8_t>,
           std::size_t>
      index;
  std::vector<Distinct> out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    TraceStimulus s = classStimulus(sbox, cfg.seed, schedule[i], i);
    s.noiseSeed = 0;
    const auto [it, fresh] =
        index.emplace(std::tuple{s.init, s.fin, s.expected}, out.size());
    if (fresh) out.push_back({std::move(s), i, 0});
    ++out[it->second].uses;
  }
  return out;
}

/// The batch engine's lane groups of a call with these m distinct stimuli
/// on `numThreads` workers, as trace/acquisition.h documents them: groups
/// of ceil(m / workers) lanes, at most 64, in windows of whole groups
/// holding at most reorderWindow(workers) * 64 single-use stimuli, each
/// window of at least that many stimuli sorted by final encoding.
struct Grouping {
  std::vector<std::vector<std::uint32_t>> groups;  ///< stimulus ids by lane
  std::vector<std::size_t> window;                 ///< per group
  std::vector<char> sorted;                        ///< per window
};

Grouping laneGroups(const std::vector<Distinct>& triples,
                    std::uint32_t numThreads) {
  constexpr std::size_t kLanes = BatchSim::kLanes;
  const std::size_t m = triples.size();
  const std::uint32_t workers = resolveWorkerThreads(numThreads, m);
  const std::size_t windowRows = detail::reorderWindow(workers) * kLanes;
  const std::size_t lanes =
      std::clamp<std::size_t>((m + workers - 1) / workers, 1, kLanes);
  std::vector<std::uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  Grouping g;
  for (std::size_t a = 0, b = 0; a < m; a = b) {
    for (std::size_t fresh = 0; b < m && fresh < windowRows; ++b) {
      if (triples[b].uses == 1) ++fresh;
    }
    if (b < m) b = a + (b - a) / lanes * lanes;
    g.sorted.push_back(b - a >= windowRows);
    if (g.sorted.back()) {
      sortByFinalEncoding(&order[a], b - a, triples[0].s.init.size(),
                          [&](std::uint32_t d) {
                            return std::pair{triples[d].s.init.data(),
                                             triples[d].s.fin.data()};
                          });
    }
    for (std::size_t p = a; p < b; p += lanes) {
      g.groups.emplace_back(order.begin() + p,
                            order.begin() + std::min(b, p + lanes));
      g.window.push_back(g.sorted.size() - 1);
    }
  }
  return g;
}

/// The Fig. 7 operating point (ExperimentConfig's transport delays with
/// process jitter and partial-swing weighting) for one style.
struct Fig7Models {
  explicit Fig7Models(SboxStyle style)
      : sbox(makeSbox(style)),
        delays(sbox->netlist(), ExperimentConfig().delay),
        power(sbox->netlist(), ExperimentConfig().power) {}
  std::unique_ptr<MaskedSbox> sbox;
  DelayModel delays;
  PowerModel power;
  SimOptions sim = ExperimentConfig().sim;
};

/// sim.batch.waves of an index-order BatchSim loop: consecutive groups of
/// `lanes` of `triples` in first-occurrence order.
std::uint64_t indexOrderWaves(const Fig7Models& f,
                              const std::vector<Distinct>& triples,
                              std::size_t lanes = BatchSim::kLanes) {
  const CompiledDesign design(f.sbox->netlist(), f.delays, f.power);
  obs::MetricsRegistry reg;
  BatchSim sim(design, f.sim);
  sim.attachMetrics(&reg);
  for (std::size_t g = 0; g < triples.size(); g += lanes) {
    runLaneGroup(
        sim, [&](std::size_t d) { return triples[d].s; }, g,
        std::min(lanes, triples.size() - g));
  }
  return reg.counter("sim.batch.waves").value();
}

/// sim.batch.waves of a batch-engine acquire(cfg).
std::uint64_t acquisitionWaves(const Fig7Models& f,
                               const AcquisitionConfig& cfg) {
  obs::MetricsRegistry reg;
  EventSim sim(f.sbox->netlist(), f.delays, f.sim);
  sim.attachMetrics(&reg);
  acquireRange(*f.sbox, sim, f.power, cfg, 0, 16u * cfg.tracesPerClass,
               [](std::uint8_t, const double*) {});
  return reg.counter("sim.batch.waves").value();
}

constexpr SboxStyle kStyles[] = {SboxStyle::Lut,    SboxStyle::Opt,
                                 SboxStyle::Glut,   SboxStyle::Rsm,
                                 SboxStyle::RsmRom, SboxStyle::Isw,
                                 SboxStyle::Ti};

TEST(LaneGrouping, SortedWindowsKeepEveryTraceBitIdentical) {
  // 160 traces per class at the Fig. 7 operating point: GLUT, ISW and TI
  // fill two full sorted windows at 4 workers (more at 1), RSM and
  // RSM-ROM one; LUT and OPT have 16 stimuli, one short window.
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 160;
  const std::size_t n = 16u * cfg.tracesPerClass;
  for (SboxStyle style : kStyles) {
    const Fig7Models f(style);
    SCOPED_TRACE(std::string(f.sbox->name()));
    const Grouping four = laneGroups(distinctStimuli(*f.sbox, cfg), 4);
    const auto sortedWindows =
        std::count(four.sorted.begin(), four.sorted.end(), 1);
    if (style == SboxStyle::Glut || style == SboxStyle::Isw ||
        style == SboxStyle::Ti) {
      EXPECT_GE(sortedWindows, 2);
    } else if (style == SboxStyle::Rsm || style == SboxStyle::RsmRom) {
      EXPECT_GE(sortedWindows, 1);
    }
    const auto run = [&](SimEngine engine, std::uint32_t threads,
                         std::size_t begin, std::size_t end) {
      cfg.engine = engine;
      cfg.numThreads = threads;
      EventSim sim(f.sbox->netlist(), f.delays, f.sim);
      return acquireRange(*f.sbox, sim, f.power, cfg, begin, end);
    };

    const TraceSet reference = run(SimEngine::Reference, 4, 0, n);
    for (std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      expectIdentical(reference, run(SimEngine::Auto, threads, 0, n));
    }
    // Slices plan their own windows; their concatenation is the run.
    TraceSet sliced = run(SimEngine::Auto, 4, 0, 1100);
    sliced.append(run(SimEngine::Auto, 4, 1100, 1101));
    sliced.append(run(SimEngine::Auto, 4, 1101, n));
    expectIdentical(reference, sliced);
  }
}

TEST(LaneGrouping, SortingCutsRsmRomWavesAndLeavesTiAndShortCallsAlone) {
  // At the Fig. 7 operating point on 4 workers, against a BatchSim loop
  // over the same distinct stimuli in first-occurrence order.
  AcquisitionConfig cfg;
  cfg.engine = SimEngine::Auto;
  cfg.numThreads = 4;
  {
    // RSM-ROM's INV delay lines keep lanes apart unless they end in the
    // same state. Its 4096 possible stimuli repeat, so at 512 traces per
    // class one sorted window holds most of them.
    cfg.tracesPerClass = 512;
    const Fig7Models f(SboxStyle::RsmRom);
    const std::uint64_t index =
        indexOrderWaves(f, distinctStimuli(*f.sbox, cfg));
    const std::uint64_t grouped = acquisitionWaves(f, cfg);
    EXPECT_LE(grouped * 10, index * 6) << grouped << " vs " << index;
  }
  {
    // TI's waves hardly depend on which lanes share them.
    cfg.tracesPerClass = 160;
    const Fig7Models f(SboxStyle::Ti);
    const std::uint64_t index =
        indexOrderWaves(f, distinctStimuli(*f.sbox, cfg));
    const std::uint64_t grouped = acquisitionWaves(f, cfg);
    EXPECT_LE(grouped * 100, index * 101) << grouped << " vs " << index;
    EXPECT_GE(grouped * 100, index * 99) << grouped << " vs " << index;
  }
  {
    // A 128-trace call is one short window in first-occurrence order, cut
    // into ceil(m / workers)-lane groups so that each worker runs one; on
    // one worker that is the 64-lane loop.
    cfg.tracesPerClass = 8;
    const Fig7Models f(SboxStyle::RsmRom);
    const std::vector<Distinct> triples = distinctStimuli(*f.sbox, cfg);
    ASSERT_GT(triples.size(), BatchSim::kLanes);
    ASSERT_LT(triples.size(), 4 * BatchSim::kLanes);
    EXPECT_EQ(acquisitionWaves(f, cfg),
              indexOrderWaves(f, triples, (triples.size() + 3) / 4));
    cfg.numThreads = 1;
    EXPECT_EQ(acquisitionWaves(f, cfg), indexOrderWaves(f, triples));
  }
}

/// Forwards to a real S-box but decodes every final encoding equal to
/// `bad` wrong, so exactly the stimuli ending in `bad` fail the decode.
class MisdecodesOneEncoding final : public MaskedSbox {
 public:
  MisdecodesOneEncoding(std::unique_ptr<MaskedSbox> inner,
                        std::vector<std::uint8_t> bad)
      : inner_(std::move(inner)), bad_(std::move(bad)) {
    nl_ = inner_->netlist();
  }
  SboxStyle style() const override { return inner_->style(); }
  int randomBits() const override { return inner_->randomBits(); }
  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    return inner_->encode(plain, rng);
  }
  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>& inputs) const override {
    const std::uint8_t y = inner_->decode(outputs, inputs);
    return inputs == bad_ ? static_cast<std::uint8_t>(y ^ 1u) : y;
  }

 private:
  std::unique_ptr<MaskedSbox> inner_;
  std::vector<std::uint8_t> bad_;
};

/// Where a failure of the stimuli `failing` lands in a batch acquisition
/// grouped as `g`: the lowest trace it loses — the lowest first trace of a
/// failing stimulus, or with `wholeGroup` (a watchdog trip) of any stimulus
/// sharing a group with one. Returns 0 unless that trace comes after
/// traces of other groups of the same sorted window. `group` receives the
/// group the failure lands in.
std::size_t landsDeepInASortedWindow(const std::vector<Distinct>& triples,
                                     const Grouping& g,
                                     const std::vector<char>& failing,
                                     bool wholeGroup, std::size_t* group) {
  std::size_t lowest = ~std::size_t{0};
  for (std::size_t k = 0; k < g.groups.size(); ++k) {
    std::size_t groupFirst = ~std::size_t{0}, failFirst = ~std::size_t{0};
    for (std::uint32_t d : g.groups[k]) {
      groupFirst = std::min(groupFirst, triples[d].first);
      if (failing[d]) failFirst = std::min(failFirst, triples[d].first);
    }
    if (failFirst == ~std::size_t{0}) continue;
    const std::size_t lands = wholeGroup ? groupFirst : failFirst;
    if (lands < lowest) {
      lowest = lands;
      *group = k;
    }
  }
  if (lowest == ~std::size_t{0} || !g.sorted[g.window[*group]]) return 0;
  for (std::size_t k = 0; k < g.groups.size(); ++k) {
    if (k == *group || g.window[k] != g.window[*group]) continue;
    for (std::uint32_t d : g.groups[k]) {
      if (triples[d].first < lowest) return lowest;
    }
  }
  return 0;
}

/// Runs acquire(cfg) into a TraceSet until it fails, and checks the
/// failure: a WorkerError at trace `failAt`, after exactly the traces of
/// `clean` before it.
void expectFailsAt(const MaskedSbox& sbox, const DelayModel& dm,
                   const PowerModel& pm, const AcquisitionConfig& cfg,
                   const SimOptions& opts, std::size_t failAt,
                   const TraceSet& clean) {
  EventSim sim(sbox.netlist(), dm, opts);
  TraceSet delivered(pm.options().numSamples);
  try {
    acquireRange(sbox, sim, pm, cfg, 0, 16u * cfg.tracesPerClass,
                 [&](std::uint8_t label, const double* samples) {
                   delivered.add(label, samples);
                 });
    ADD_FAILURE() << "the acquisition must fail";
  } catch (const WorkerError& e) {
    EXPECT_EQ(e.index(), failAt) << e.what();
  }
  ASSERT_EQ(delivered.size(), failAt);
  TraceSet prefix(pm.options().numSamples);
  for (std::size_t i = 0; i < failAt; ++i) {
    prefix.add(clean.label(i), clean.trace(i));
  }
  expectIdentical(prefix, delivered);
}

TEST(LaneGrouping, DecodeMismatchLandsAtTheLowestFailingLaneOfItsWindow) {
  // RSM at 256 traces per class: 1 and 4 workers both sort the window the
  // failure lands in. The misdecoded final encoding is picked so that its
  // lowest trace comes after traces of other groups of the same window,
  // and after a failing lane that sorts before it in its group.
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 256;
  cfg.engine = SimEngine::Auto;
  const auto plain = makeSbox(SboxStyle::Rsm);
  const DelayModel dm(plain->netlist());
  const PowerModel pm(plain->netlist());
  const std::vector<Distinct> triples = distinctStimuli(*plain, cfg);

  const Grouping groupings[] = {laneGroups(triples, 1),
                                laneGroups(triples, 4)};
  std::vector<std::uint8_t> bad;
  std::size_t failAt = 0;
  std::vector<char> failing(triples.size());
  for (const Distinct& candidate : triples) {
    if (candidate.first < 200) continue;
    bool seen = false;
    for (std::size_t d = 0; d < triples.size(); ++d) {
      failing[d] = triples[d].s.fin == candidate.s.fin;
      seen |= failing[d] && triples[d].first < candidate.first;
    }
    if (seen) continue;  // candidate is not its encoding's first stimulus
    bool deep = true;
    for (const Grouping& g : groupings) {
      std::size_t group = 0;
      if (landsDeepInASortedWindow(triples, g, failing, false, &group) !=
          candidate.first) {
        deep = false;
        break;
      }
      // The group's first failing lane in lane order must be another one,
      // so naming the first failing lane would name the wrong trace.
      const std::vector<std::uint32_t>& lanes = g.groups[group];
      const auto firstFailing =
          std::find_if(lanes.begin(), lanes.end(),
                       [&](std::uint32_t d) { return failing[d] != 0; });
      deep = triples[*firstFailing].first != candidate.first;
      if (!deep) break;
    }
    if (deep) {
      bad = candidate.s.fin;
      failAt = candidate.first;
      break;
    }
  }
  ASSERT_FALSE(bad.empty()) << "no final encoding lands deep in a window";

  EventSim plainSim(plain->netlist(), dm);
  const TraceSet clean = acquire(*plain, plainSim, pm, cfg);
  const MisdecodesOneEncoding sbox(makeSbox(SboxStyle::Rsm), bad);
  for (std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    cfg.numThreads = threads;
    expectFailsAt(sbox, dm, pm, cfg, SimOptions{}, failAt, clean);
  }
}

TEST(LaneGrouping, WatchdogTripLandsAtTheLowestTraceOfItsGroup) {
  // A watchdog budget just below the costliest stimuli of RSM's run: the
  // groups they share lanes with fail whole, each named by the lowest
  // first trace among its stimuli.
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 256;
  cfg.engine = SimEngine::Auto;
  const auto sbox = makeSbox(SboxStyle::Rsm);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const std::vector<Distinct> triples = distinctStimuli(*sbox, cfg);
  std::vector<std::uint64_t> events(triples.size());
  {
    EventSim sim(sbox->netlist(), dm);
    for (std::size_t d = 0; d < triples.size(); ++d) {
      const std::uint64_t before = sim.stats().eventsProcessed;
      sim.settle(triples[d].s.init);
      sim.run(triples[d].s.fin);
      events[d] = sim.stats().eventsProcessed - before;
    }
  }
  std::vector<std::uint64_t> budgets = events;
  std::sort(budgets.rbegin(), budgets.rend());
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());

  // The reference trips once a run pops more events than the budget, and
  // the batch engine trips the same lanes.
  const Grouping groupings[] = {laneGroups(triples, 1),
                                laneGroups(triples, 4)};
  SimOptions opts;
  std::size_t failAt[2] = {0, 0};
  std::vector<char> trips(triples.size());
  for (std::size_t k = 1; k < budgets.size() && failAt[1] == 0; ++k) {
    opts.maxEvents = budgets[k];
    for (std::size_t d = 0; d < triples.size(); ++d) {
      trips[d] = events[d] > opts.maxEvents;
    }
    std::size_t group = 0;
    failAt[0] = landsDeepInASortedWindow(triples, groupings[0], trips, true,
                                         &group);
    failAt[1] = failAt[0] == 0
                    ? 0
                    : landsDeepInASortedWindow(triples, groupings[1], trips,
                                               true, &group);
  }
  ASSERT_NE(failAt[1], 0u) << "no budget trips deep in a sorted window";

  EventSim cleanSim(sbox->netlist(), dm);
  const TraceSet clean = acquire(*sbox, cleanSim, pm, cfg);
  for (std::uint32_t t = 0; t < 2; ++t) {
    SCOPED_TRACE("threads " + std::to_string(t == 0 ? 1 : 4));
    cfg.numThreads = t == 0 ? 1 : 4;
    expectFailsAt(*sbox, dm, pm, cfg, opts, failAt[t], clean);
  }
}

}  // namespace
}  // namespace lpa
