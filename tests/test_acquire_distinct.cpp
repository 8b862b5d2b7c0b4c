// Distinct-stimulus acquisition suite.
//
// An acquisition call simulates each distinct (init, fin, expected) triple
// of its traces once, without noise, and hands trace i its triple's
// samples plus trace i's own noise (trace/acquisition.h). These tests pin
// down what that must not change: every trace equals a per-trace
// simulation with its own noise seed, a failure lands at the lowest trace
// it affects after every earlier trace was delivered, and the counters
// tell simulations from traces.

#include "trace/acquisition.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/present.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "trace/prng.h"
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

/// acquire(cfg)'s traces computed the slow way: every trace simulated on
/// its own by the reference EventSim and sampled with its own noise seed.
TraceSet perTraceOracle(const MaskedSbox& sbox, const DelayModel& dm,
                        const PowerModel& pm, const AcquisitionConfig& cfg) {
  EventSim sim(sbox.netlist(), dm);
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  TraceSet traces(pm.options().numSamples);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const TraceStimulus s = classStimulus(sbox, cfg.seed, schedule[i], i);
    sim.settle(s.init);
    traces.add(s.label, pm.sample(sim.run(s.fin), s.noiseSeed));
  }
  return traces;
}

/// Number of distinct (init, fin, expected) triples among acquire(cfg)'s
/// traces.
std::size_t distinctStimuli(const MaskedSbox& sbox,
                            const AcquisitionConfig& cfg) {
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  std::set<std::tuple<std::vector<std::uint8_t>, std::vector<std::uint8_t>,
                      std::uint8_t>>
      triples;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    TraceStimulus s = classStimulus(sbox, cfg.seed, schedule[i], i);
    triples.emplace(std::move(s.init), std::move(s.fin), s.expected);
  }
  return triples.size();
}

constexpr SimEngine kEngines[] = {SimEngine::Auto, SimEngine::Reference};

std::string engineName(SimEngine e) {
  return e == SimEngine::Auto ? "auto" : "reference";
}

TEST(AcquireDistinct, RepeatsGetTheirOwnNoiseOnEveryEngine) {
  // A repeated stimulus must not reuse its first occurrence's noise: at 40
  // traces per class LUT has 16 distinct stimuli and RSM/RSM-ROM repeat
  // some of theirs, while GLUT's are (almost) all distinct.
  PowerOptions po;
  po.noiseSigma = 0.5;
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 40;
  for (SboxStyle style : {SboxStyle::Lut, SboxStyle::Rsm, SboxStyle::RsmRom,
                          SboxStyle::Glut}) {
    const auto sbox = makeSbox(style);
    SCOPED_TRACE(std::string(sbox->name()));
    const DelayModel dm(sbox->netlist());
    const PowerModel pm(sbox->netlist(), po);
    if (style != SboxStyle::Glut) {
      EXPECT_LT(distinctStimuli(*sbox, cfg), 16u * cfg.tracesPerClass);
    }
    const TraceSet oracle = perTraceOracle(*sbox, dm, pm, cfg);
    for (SimEngine engine : kEngines) {
      for (std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(engineName(engine) + ", threads " +
                     std::to_string(threads));
        cfg.engine = engine;
        cfg.numThreads = threads;
        EventSim sim(sbox->netlist(), dm);
        expectIdentical(oracle, acquire(*sbox, sim, pm, cfg));
      }
    }
  }
}

TEST(AcquireDistinct, KeyedRepeatsGetTheirOwnNoise) {
  // LUT's keyed traces are 16 distinct stimuli; each keeps its own noise.
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  PowerOptions po;
  po.noiseSigma = 0.5;
  const PowerModel pm(sbox->netlist(), po);
  constexpr std::uint8_t kKey = 0xB;
  constexpr std::uint32_t kTraces = 200;
  constexpr std::uint64_t kSeed = 7;
  EventSim ref(sbox->netlist(), dm);
  TraceSet oracle(po.numSamples);
  for (std::size_t i = 0; i < kTraces; ++i) {
    Prng rng(deriveStreamSeed(kSeed, i));
    const std::uint8_t plain = rng.nibble();
    ref.settle(sbox->encode(0, rng));
    const std::vector<std::uint8_t> fin =
        sbox->encode(static_cast<std::uint8_t>(plain ^ kKey), rng);
    oracle.add(plain, pm.sample(ref.run(fin), rng.next() | 1ULL));
  }
  for (SimEngine engine : kEngines) {
    for (std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(engineName(engine) + ", threads " +
                   std::to_string(threads));
      EventSim sim(sbox->netlist(), dm);
      AcquisitionConfig cfg;
      cfg.seed = kSeed;
      cfg.numThreads = threads;
      cfg.engine = engine;
      expectIdentical(oracle,
                      acquireKeyed(*sbox, sim, pm, cfg, kKey, kTraces));
    }
  }
}

/// Forwards to a real S-box but decodes class `bad` wrong, so every trace
/// of that class fails the decode check.
class MisdecodesOneClass final : public MaskedSbox {
 public:
  MisdecodesOneClass(std::unique_ptr<MaskedSbox> inner, std::uint8_t bad)
      : inner_(std::move(inner)), bad_(bad) {
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
    return y == kPresentSbox[bad_] ? static_cast<std::uint8_t>(y ^ 1u) : y;
  }

 private:
  std::unique_ptr<MaskedSbox> inner_;
  std::uint8_t bad_;
};

TEST(AcquireDistinct, FailureLandsAtTheClassFirstTraceAfterEveryEarlierOne) {
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 16;  // 256 traces, some stimuli repeated
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  // The class whose first trace comes last, so the failure lands deep in
  // the run and inside a work item.
  std::vector<std::size_t> firstOf(16, schedule.size());
  for (std::size_t i = schedule.size(); i-- > 0;) firstOf[schedule[i]] = i;
  std::uint8_t bad = 0;
  for (std::uint8_t c = 1; c < 16; ++c) {
    if (firstOf[c] > firstOf[bad]) bad = c;
  }
  const std::size_t failAt = firstOf[bad];
  ASSERT_GT(failAt, 16u);

  const MisdecodesOneClass sbox(makeSbox(SboxStyle::Rsm), bad);
  const DelayModel dm(sbox.netlist());
  const PowerModel pm(sbox.netlist());
  const auto plain = makeSbox(SboxStyle::Rsm);
  EventSim plainSim(plain->netlist(), dm);
  const TraceSet clean = acquire(*plain, plainSim, pm, cfg);

  for (SimEngine engine : kEngines) {
    for (std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(engineName(engine) + ", threads " +
                   std::to_string(threads));
      cfg.engine = engine;
      cfg.numThreads = threads;
      EventSim sim(sbox.netlist(), dm);
      TraceSet delivered(pm.options().numSamples);
      try {
        acquireRange(sbox, sim, pm, cfg, 0, 16u * cfg.tracesPerClass,
                     [&](std::uint8_t label, const double* samples) {
                       delivered.add(label, samples);
                     });
        ADD_FAILURE() << "a mis-decoded class must fail the acquisition";
      } catch (const WorkerError& e) {
        EXPECT_EQ(e.index(), failAt);
        const std::string msg = e.what();
        EXPECT_NE(msg.find("acquire trace " + std::to_string(failAt) +
                           " (class " + std::to_string(bad) + ","),
                  std::string::npos)
            << msg;
        ASSERT_EQ(delivered.size(), failAt);
        for (std::size_t i = 0; i < failAt; ++i) {
          ASSERT_EQ(delivered.label(i), clean.label(i)) << "trace " << i;
          for (std::uint32_t s = 0; s < delivered.numSamples(); ++s) {
            ASSERT_EQ(delivered.trace(i)[s], clean.trace(i)[s])
                << "trace " << i << " sample " << s;
          }
        }
      }
    }
  }
}

TEST(AcquireDistinct, EnginesCountSimulationsAndAcquireCountsTraces) {
  const auto sbox = makeSbox(SboxStyle::RsmRom);
  const DelayModel dm(sbox->netlist());
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 40;
  cfg.numThreads = 2;
  const std::size_t traces = 16u * cfg.tracesPerClass;
  const std::size_t distinct = distinctStimuli(*sbox, cfg);
  ASSERT_LT(distinct, traces);

  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  obs::EventJournal& journal = obs::EventJournal::global();
  const std::pair<SimEngine, const char*> engines[] = {
      {SimEngine::Reference, "sim."}, {SimEngine::Auto, "sim.batch."}};
  for (const auto& [engine, prefix] : engines) {
    SCOPED_TRACE(prefix);
    obs::MetricsRegistry reg;
    EventSim sim(sbox->netlist(), dm);
    sim.attachMetrics(&reg);
    PowerModel pm(sbox->netlist());
    pm.attachMetrics(&reg);
    cfg.engine = engine;
    const std::uint64_t tracesBefore =
        global.counter("acquire.traces_total").value();
    const std::uint64_t distinctBefore =
        global.counter("acquire.distinct_total").value();
    const std::uint64_t eventsBefore = journal.emitted();
    const TraceSet got = acquire(*sbox, sim, pm, cfg);

    EXPECT_EQ(got.size(), traces);
    EXPECT_EQ(reg.counter(std::string(prefix) + "runs").value(), distinct);
    EXPECT_EQ(reg.counter("power.traces_sampled").value(), distinct);
    EXPECT_EQ(global.counter("acquire.traces_total").value() - tracesBefore,
              traces);
    EXPECT_EQ(
        global.counter("acquire.distinct_total").value() - distinctBefore,
        distinct);
    int starts = 0;
    for (const obs::JournalEvent& ev :
         journal.tail(journal.emitted() - eventsBefore)) {
      if (ev.kind != "acquire-start") continue;
      ++starts;
      std::map<std::string, std::string> fields(ev.fields.begin(),
                                                ev.fields.end());
      EXPECT_EQ(fields["traces"], std::to_string(traces));
      EXPECT_EQ(fields["distinct"], std::to_string(distinct));
    }
    EXPECT_EQ(starts, 1);
  }
}

}  // namespace
}  // namespace lpa
