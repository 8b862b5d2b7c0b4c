// Error-path coverage: every documented throw site must fire with a
// diagnosable message, and worker-pool failures must carry the identity of
// the failing work item (fail-safe acquisition).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "crypto/present.h"
#include "netlist/builder.h"
#include "netlist/netlist.h"
#include "netlist/validate.h"
#include "obs/event_journal.h"
#include "power/power_model.h"
#include "sboxes/encoding.h"
#include "sboxes/isw_any_order.h"
#include "sboxes/masked_sbox.h"
#include "trace/acquisition.h"
#include "trace/sharded_pool.h"
#include "trace/trace_set.h"

namespace lpa {
namespace {

// Message-checking helper: the exception must both be of the right type and
// mention the given fragment, so failures stay diagnosable.
template <typename Ex, typename Fn>
void expectThrowContaining(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected exception mentioning '" << fragment << "'";
  } catch (const Ex& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(NetlistErrors, RejectsBadFaninCounts) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  const NetId b = nl.addInput("b");
  // XOR is strictly 2-input in this cell library.
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.addGate(GateType::Xor, {a, b, a}); }, "bad fanin count");
  // AND tops out at the library max of 4.
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.addGate(GateType::And, {a, b, a, b, a}); }, "bad fanin count");
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.addGate(GateType::Inv, {}); }, "bad fanin count");
}

TEST(NetlistErrors, AddGateEnforcesTopologicalOrder) {
  Netlist nl;
  const NetId a = nl.addInput("a");
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.addGate(GateType::Buf, {a + 1}); }, "not yet defined");
  // replaceGate deliberately relaxes this (fault overlays may feed back),
  // but still rejects nets that do not exist at all.
  const NetId y = nl.addGate(GateType::Buf, {a});
  nl.markOutput(y, "y");
  EXPECT_NO_THROW(nl.replaceGate(a, GateType::Buf, {y}));
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.replaceGate(y, GateType::Buf, {y + 100}); }, "missing net");
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.replaceGate(y + 100, GateType::Const0, {}); }, "no such gate");
  expectThrowContaining<std::invalid_argument>(
      [&] { nl.replaceGate(y, GateType::Input, {}); }, "primary input");
}

TEST(NetlistErrors, LookupsNameTheMissingNet) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  b.output(b.buf(a), "y");
  const Netlist nl = b.take();
  expectThrowContaining<std::invalid_argument>(
      [&] { (void)nl.inputByName("zz"); }, "unknown input: zz");
  expectThrowContaining<std::invalid_argument>(
      [&] { (void)nl.outputByName("zz"); }, "unknown output: zz");
  Netlist mut = nl;
  expectThrowContaining<std::invalid_argument>(
      [&] { mut.markOutput(1000, "bad"); }, "does not exist");
  expectThrowContaining<std::invalid_argument>(
      [&] { (void)nl.evaluate({1, 0}); }, "wrong number of input values");
}

TEST(NetlistErrors, ValidateOrThrowListsEveryProblem) {
  // A netlist with a disconnected input AND a cycle reachable from another.
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId dead = b.input("dead");
  (void)dead;
  const NetId g = b.buf(a);
  const NetId f = b.xorGate(a, g);
  const NetId y = b.buf(f);
  b.output(y, "y");
  Netlist nl = b.take();
  // Keep the a -> f edge so the feedback loop stays input-reachable.
  nl.replaceGate(f, GateType::Xor, {a, y});
  try {
    validateOrThrow(nl, "test-netlist");
    FAIL() << "validation must fail";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test-netlist"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("combinational cycle"), std::string::npos) << msg;
  }
}

TEST(SboxErrors, FactoryRejectsUnknownStyleAndBadIswOrder) {
  expectThrowContaining<std::invalid_argument>(
      [] { (void)makeSbox(static_cast<SboxStyle>(255)); },
      "unknown S-box style");
  // The order guard of the generic masking construction.
  expectThrowContaining<std::invalid_argument>(
      [] { (void)makeIswSboxOfOrder(0); }, "ISW order");
  expectThrowContaining<std::invalid_argument>(
      [] { (void)makeIswSboxOfOrder(9); }, "ISW order");
  EXPECT_NO_THROW((void)makeIswSboxOfOrder(2));
}

TEST(EncodingErrors, NibbleOffsetOutOfRange) {
  const std::vector<std::uint8_t> bits = {1, 0, 1, 0, 1};
  EXPECT_EQ(readNibbleBits(bits, 0), 0x5);
  EXPECT_EQ(readNibbleBits(bits, 1), 0xA);
  expectThrowContaining<std::out_of_range>(
      [&] { (void)readNibbleBits(bits, 2); }, "nibble offset");
}

TEST(TraceSetErrors, ShapeViolationsThrow) {
  TraceSet ts(4);
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.add(16, std::vector<double>(4, 0.0)); }, "class out of range");
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.add(0, std::vector<double>(3, 0.0)); },
      "trace length mismatch");
  ts.add(0, std::vector<double>(4, 0.0));

  TraceSet wrongSamples(5);
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.append(wrongSamples); }, "trace set shape mismatch");
  TraceSet wrongClasses(4, 8);
  expectThrowContaining<std::invalid_argument>(
      [&] { ts.append(wrongClasses); }, "trace set shape mismatch");
  EXPECT_EQ(ts.size(), 1u);  // failed appends left the set untouched
}

// An S-box whose netlist just buffers its inputs: decode then reads the
// buffered plaintext back, which never equals kPresentSbox[plain] (the
// PRESENT S-box has no fixed points), so every trace's acquisition
// self-check fails. This exercises the fail-safe path deterministically.
class BrokenSbox final : public MaskedSbox {
 public:
  BrokenSbox() {
    NetlistBuilder b;
    for (int i = 0; i < 4; ++i) {
      b.output(b.buf(b.input(std::string("x").append(std::to_string(i)))),
               std::string("y").append(std::to_string(i)));
    }
    nl_ = b.take();
  }
  SboxStyle style() const override { return SboxStyle::Lut; }
  int randomBits() const override { return 0; }
  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng&) const override {
    std::vector<std::uint8_t> bits;
    appendNibbleBits(bits, plain);
    return bits;
  }
  std::uint8_t decode(const std::vector<std::uint8_t>& outputs,
                      const std::vector<std::uint8_t>&) const override {
    return readNibbleBits(outputs, 0);
  }
};

TEST(AcquisitionErrors, WorkerErrorCarriesTraceIdentity) {
  const BrokenSbox sbox;
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());

  AcquisitionConfig cfg;
  cfg.tracesPerClass = 1;
  cfg.numThreads = 1;
  EventSim sim(sbox.netlist(), dm);
  try {
    (void)acquire(sbox, sim, power, cfg);
    FAIL() << "decode mismatch must abort acquisition";
  } catch (const WorkerError& e) {
    // Single worker: the failure is the very first trace, and its identity
    // (index, class, style) is in the message.
    EXPECT_EQ(e.index(), 0u);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("class"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Unprotected"), std::string::npos) << msg;
    // The root cause is nested and recoverable.
    bool sawNested = false;
    try {
      std::rethrow_if_nested(e);
    } catch (const std::exception& nested) {
      sawNested = true;
      EXPECT_NE(std::string(nested.what()).find("decode"), std::string::npos);
    }
    EXPECT_TRUE(sawNested);
  }
}

TEST(AcquisitionErrors, ParallelFailurePrefersLowestIndex) {
  const BrokenSbox sbox;
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());

  AcquisitionConfig cfg;
  cfg.tracesPerClass = 2;  // 32 traces over 4 workers
  cfg.numThreads = 4;
  EventSim sim(sbox.netlist(), dm);
  try {
    (void)acquire(sbox, sim, power, cfg);
    FAIL() << "decode mismatch must abort acquisition";
  } catch (const WorkerError& e) {
    // Every trace fails. Workers claim items in index order, so the item
    // holding trace 0 is claimed first and always runs to its failure,
    // whichever worker fails first: trace 0 wins at any timing.
    EXPECT_EQ(e.index(), 0u);
    EXPECT_NE(std::string(e.what()).find("trace 0 "), std::string::npos)
        << e.what();
  }
}

TEST(AcquisitionErrors, SinkFailureNamesItsTrace) {
  // An exception from the trace consumer fails its trace the way a decode
  // mismatch does: a WorkerError with the trace's index and identity, the
  // cause nested, after every earlier trace was delivered in order.
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel power(sbox->netlist());
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 12;  // 192 traces: three lane groups
  for (SimEngine engine : {SimEngine::Reference, SimEngine::Auto}) {
    for (std::uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      cfg.engine = engine;
      cfg.numThreads = threads;
      EventSim sim(sbox->netlist(), dm);
      std::size_t delivered = 0;
      try {
        acquireRange(*sbox, sim, power, cfg, 0, 16u * cfg.tracesPerClass,
                     [&](std::uint8_t, const double*) {
                       if (delivered == 100) {
                         throw std::runtime_error("sink full");
                       }
                       ++delivered;
                     });
        ADD_FAILURE() << "a throwing sink must fail the acquisition";
      } catch (const WorkerError& e) {
        EXPECT_EQ(e.index(), 100u);
        EXPECT_EQ(delivered, 100u);
        const std::string msg = e.what();
        EXPECT_NE(msg.find("acquire trace 100 (class"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("sink full"), std::string::npos) << msg;
        bool sawNested = false;
        try {
          std::rethrow_if_nested(e);
        } catch (const std::runtime_error& nested) {
          sawNested = std::string(nested.what()) == "sink full";
        }
        EXPECT_TRUE(sawNested);
      }
    }
  }
}

/// True when `e` nests a SimDiverged at any depth.
bool nestsSimDiverged(const std::exception& e) {
  try {
    std::rethrow_if_nested(e);
  } catch (const SimDiverged&) {
    return true;
  } catch (const std::exception& inner) {
    return nestsSimDiverged(inner);
  }
  return false;
}

TEST(AcquisitionErrors, AdaptiveWatchdogTripFailsGroupZeroOnce) {
  // adaptiveAcquireAt runs one attempt per group: a tripped watchdog fails
  // the run at once, as one WorkerError naming group 0 with the
  // SimDiverged nested, and is never retried.
  ExperimentConfig cfg;
  cfg.sim.maxEvents = 1;
  cfg.acquisition.tracesPerClass = 8;
  cfg.acquisition.batchSize = 64;
  cfg.acquisition.numThreads = 1;
  SboxExperiment exp(SboxStyle::Rsm, cfg);
  obs::EventJournal& journal = obs::EventJournal::global();
  const std::uint64_t before = journal.emitted();
  try {
    (void)exp.adaptiveAcquireAt(0.0);
    FAIL() << "a tripped watchdog must fail the adaptive run";
  } catch (const WorkerError& e) {
    EXPECT_EQ(e.index(), 0u);
    EXPECT_NE(std::string(e.what()).find("resilient group 0/2"),
              std::string::npos)
        << e.what();
    EXPECT_TRUE(nestsSimDiverged(e)) << e.what();
  }
  int starts = 0;
  for (const obs::JournalEvent& ev :
       journal.tail(journal.emitted() - before)) {
    EXPECT_NE(ev.kind, "group-retry");
    if (ev.kind == "acquire-start") ++starts;
  }
  EXPECT_EQ(starts, 1);
}

/// Deterministic per-item pause in [0, 300) µs, every 7th item 2 ms, so
/// items finish far out of index order.
void pauseFor(std::size_t i) {
  std::uint64_t h = (i + 1) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  const auto us = i % 7 == 3 ? 2000 : static_cast<int>(h % 300);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

TEST(ShardedPool, DeliversInIndexOrderWithinTheReorderWindow) {
  constexpr std::size_t n = 120;
  for (std::uint32_t threads = 1; threads <= 8; ++threads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::size_t window = detail::reorderWindow(threads);
    std::vector<std::size_t> order;
    std::atomic<std::size_t> delivered{0};
    std::atomic<std::size_t> pending{0};  // started, not yet delivered
    std::atomic<std::size_t> maxPending{0};
    std::atomic<bool> startedPastWindow{false};
    detail::orderedFor(
        n, threads, window,
        [&](std::uint32_t, std::size_t i) {
          if (i >= delivered.load() + window) startedPastWindow = true;
          const std::size_t now = ++pending;
          std::size_t seen = maxPending.load();
          while (now > seen && !maxPending.compare_exchange_weak(seen, now)) {
          }
          pauseFor(i);
        },
        [&](std::size_t i) {
          order.push_back(i);
          --pending;
          ++delivered;
        },
        [](std::size_t i) { return "item " + std::to_string(i); });
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(order[i], i);
    EXPECT_FALSE(startedPastWindow.load());
    EXPECT_LE(maxPending.load(), window);
  }
}

TEST(ShardedPool, LowerOfTwoFailuresAlwaysWins) {
  // Item 9 fails at once; item 5 fails only after a pause, long after
  // item 9's failure has stopped the pool. Item 5 was claimed first, so it
  // still runs, and its failure wins at every thread count.
  for (std::uint32_t threads = 1; threads <= 8; ++threads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<std::size_t> delivered;
    try {
      detail::orderedFor(
          40, threads, detail::reorderWindow(threads),
          [&](std::uint32_t, std::size_t i) {
            if (i == 5) {
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
              throw std::runtime_error("slow failure");
            }
            if (i == 9) throw std::runtime_error("fast failure");
          },
          [&](std::size_t i) { delivered.push_back(i); },
          [](std::size_t i) { return "item " + std::to_string(i); });
      ADD_FAILURE() << "failure must propagate";
    } catch (const WorkerError& e) {
      EXPECT_EQ(e.index(), 5u);
      EXPECT_NE(std::string(e.what()).find("item 5: slow failure"),
                std::string::npos)
          << e.what();
    }
    // Everything below the failure was delivered, nothing at or past it.
    EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(ShardedPool, AbortStopsDoomedWorkersEarly) {
  // Worker 0 fails instantly on item 0; the other shards observe the abort
  // flag and skip most of their items rather than running to completion.
  std::atomic<std::size_t> executed{0};
  try {
    detail::shardedFor(
        1000, 4,
        [&](std::uint32_t, std::size_t i) {
          if (i == 0) throw std::runtime_error("boom");
          ++executed;
        },
        [](std::size_t i) { return "item " + std::to_string(i); });
    FAIL() << "failure must propagate";
  } catch (const WorkerError& e) {
    EXPECT_EQ(e.index(), 0u);
    EXPECT_NE(std::string(e.what()).find("item 0"), std::string::npos);
  }
  // Not a timing guarantee, but with the flag checked before every item the
  // pool cannot have run the full remaining 999.
  EXPECT_LT(executed.load(), 999u);
}

}  // namespace
}  // namespace lpa
