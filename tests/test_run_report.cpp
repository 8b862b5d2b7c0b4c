// Tests for the JSON document model (src/obs/json.h) and the run-report
// schema (src/obs/run_report.h): parser unit coverage and the full
// emit -> parse -> validate -> re-emit round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace lpa {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(obs::Json::parse("null").isNull());
  EXPECT_EQ(obs::Json::parse("true").asBool(), true);
  EXPECT_EQ(obs::Json::parse("false").asBool(), false);
  EXPECT_EQ(obs::Json::parse("42").asNumber(), 42.0);
  EXPECT_EQ(obs::Json::parse("-2.5e2").asNumber(), -250.0);
  EXPECT_EQ(obs::Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedContainers) {
  const obs::Json j =
      obs::Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(j.isObject());
  const obs::Json* a = j.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ(a->at(0).asNumber(), 1.0);
  EXPECT_EQ(a->at(2).find("b")->asString(), "c");
  EXPECT_TRUE(j.find("d")->isObject());
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(obs::Json::parse(R"("a\"b\\c\n\t")").asString(), "a\"b\\c\n\t");
  // A = 'A'; é = é (two UTF-8 bytes).
  EXPECT_EQ(obs::Json::parse(R"("A")").asString(), "A");
  EXPECT_EQ(obs::Json::parse(R"("é")").asString(), "\xC3\xA9");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(obs::Json::parse(""), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("1 2"), std::runtime_error);
}

TEST(Json, IntegersPrintWithoutExponent) {
  EXPECT_EQ(obs::Json(std::uint64_t{1234567890123}).dump(), "1234567890123");
  EXPECT_EQ(obs::Json(0).dump(), "0");
  EXPECT_EQ(obs::Json(-7).dump(), "-7");
}

TEST(Json, DumpParseRoundTripIsExact) {
  obs::Json j = obs::Json::object();
  j["pi"] = obs::Json(3.141592653589793);
  j["tiny"] = obs::Json(1e-300);
  j["n"] = obs::Json(std::uint64_t{1} << 52);
  j["s"] = obs::Json("line\nbreak \"quoted\"");
  j["flag"] = obs::Json(true);
  obs::Json arr = obs::Json::array();
  arr.push_back(obs::Json(1.5));
  arr.push_back(obs::Json());
  j["arr"] = arr;
  const obs::Json back = obs::Json::parse(j.dump());
  EXPECT_EQ(back, j);
  EXPECT_EQ(back.find("pi")->asNumber(), 3.141592653589793);
  // Pretty-printed output parses to the same document.
  EXPECT_EQ(obs::Json::parse(j.dump(2)), j);
}

TEST(Json, ObjectEqualityIsOrderInsensitive) {
  const obs::Json a = obs::Json::parse(R"({"x": 1, "y": 2})");
  const obs::Json b = obs::Json::parse(R"({"y": 2, "x": 1})");
  EXPECT_EQ(a, b);
  const obs::Json c = obs::Json::parse(R"({"x": 1, "y": 3})");
  EXPECT_NE(a, c);
}

obs::RunReport makeReport() {
  obs::RunReport report("unit-test-run");
  report.setSeed(0xCAFE0003ULL);
  report.setParam("style", std::string("GLUT"));
  report.setParam("traces_per_class", 64.0);
  report.addPhase("acquire", 123.5, 456.25);
  report.addPhase("analyze", 2.0, 1.5);
  report.setLeakage("total", 1234.5);
  report.setLeakage("single_bit", 1.25);
  report.setDigest(3.141592653589793);
  obs::MetricsRegistry reg;
  reg.counter("sim.runs").add(1024);
  reg.gauge("sim.peak_queue_depth").set(37.0);
  report.setMetrics(reg.snapshot());
  return report;
}

TEST(RunReport, SchemaRoundTripsAndValidates) {
  const obs::RunReport report = makeReport();
  const obs::Json j = report.toJson();
  EXPECT_EQ(obs::RunReport::validate(j), "");

  EXPECT_EQ(j.find("schema")->asString(), obs::RunReport::schemaId());
  EXPECT_EQ(j.find("name")->asString(), "unit-test-run");
  EXPECT_EQ(j.find("seed")->asNumber(),
            static_cast<double>(0xCAFE0003ULL));
  EXPECT_EQ(j.find("git")->asString(), obs::RunReport::gitDescribe());
  ASSERT_EQ(j.find("phases")->size(), 2u);
  EXPECT_EQ(j.find("phases")->at(0).find("name")->asString(), "acquire");
  EXPECT_EQ(j.find("phases")->at(0).find("wall_ms")->asNumber(), 123.5);
  EXPECT_EQ(j.find("leakage")->find("total")->asNumber(), 1234.5);
  EXPECT_EQ(
      j.find("metrics")->find("counters")->find("sim.runs")->asNumber(),
      1024.0);
  // %.17g digest string survives the round trip bit-exactly.
  EXPECT_EQ(std::stod(j.find("determinism_digest")->asString()),
            3.141592653589793);

  // parse(dump()) is semantically the original document.
  const obs::Json back = obs::Json::parse(j.dump(2));
  EXPECT_EQ(obs::RunReport::validate(back), "");
  EXPECT_EQ(back, j);
}

TEST(RunReport, ValidateRejectsNonConformingDocuments) {
  EXPECT_NE(obs::RunReport::validate(obs::Json::parse("[]")), "");
  EXPECT_NE(obs::RunReport::validate(obs::Json::parse("{}")), "");

  obs::Json j = makeReport().toJson();
  obs::Json noSchema = j;
  noSchema["schema"] = obs::Json("other/2");
  EXPECT_NE(obs::RunReport::validate(noSchema), "");

  obs::Json badName = j;
  badName["name"] = obs::Json("");
  EXPECT_NE(obs::RunReport::validate(badName), "");

  obs::Json badPhase = j;
  obs::Json phases = obs::Json::array();
  obs::Json p = obs::Json::object();
  p["name"] = obs::Json("x");
  p["wall_ms"] = obs::Json(-1.0);  // negative wall time
  p["cpu_ms"] = obs::Json(0.0);
  phases.push_back(p);
  badPhase["phases"] = phases;
  EXPECT_NE(obs::RunReport::validate(badPhase), "");

  obs::Json badLeak = j;
  badLeak["leakage"]["total"] = obs::Json("not a number");
  EXPECT_NE(obs::RunReport::validate(badLeak), "");

  // /4 keeps metrics.histograms, empty, until /5 drops it.
  obs::Json noHistograms = j;
  obs::Json metrics = obs::Json::object();
  metrics["counters"] = *j.find("metrics")->find("counters");
  metrics["gauges"] = *j.find("metrics")->find("gauges");
  noHistograms["metrics"] = metrics;
  EXPECT_NE(obs::RunReport::validate(noHistograms), "");
}

TEST(RunReport, WritesFileThatParsesBack) {
  const std::string path = ::testing::TempDir() + "lpa_run_report_test.json";
  makeReport().writeTo(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  obs::Json j = obs::Json::parse(ss.str());
  EXPECT_EQ(obs::RunReport::validate(j), "");
  // timestamp_unix is stamped at emission, so normalize it before the
  // semantic comparison against a fresh emission.
  obs::Json expect = makeReport().toJson();
  j["timestamp_unix"] = obs::Json(0.0);
  expect["timestamp_unix"] = obs::Json(0.0);
  EXPECT_EQ(j, expect);
  std::remove(path.c_str());
}

TEST(RunReport, WriteToUnwritablePathThrows) {
  EXPECT_THROW(makeReport().writeTo("/nonexistent-dir/x/y/report.json"),
               std::runtime_error);
}

// writeTo and appendTo validate the document before they touch the disk:
// a report that fails validate() (here, an empty name) throws and leaves
// neither a file nor a ledger line.
TEST(RunReport, WriteRefusesAnInvalidDocument) {
  const obs::RunReport unnamed("");
  ASSERT_NE(obs::RunReport::validate(unnamed.toJson()), "");
  const std::string path = ::testing::TempDir() + "lpa_invalid_report.json";
  const std::string ledger = ::testing::TempDir() + "lpa_invalid.jsonl";
  std::remove(path.c_str());
  std::remove(ledger.c_str());

  EXPECT_THROW(unnamed.writeTo(path), std::runtime_error);
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_THROW(unnamed.appendTo(ledger), std::runtime_error);
  EXPECT_FALSE(std::ifstream(ledger).good());

  makeReport().appendTo(ledger);
  EXPECT_THROW(unnamed.appendTo(ledger), std::runtime_error);
  std::ifstream in(ledger);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 1u);
  std::remove(ledger.c_str());
}

TEST(RunReport, StatisticsBlockRoundTrips) {
  obs::RunReport report = makeReport();
  report.setStatistic("traces_total", obs::Json(3712.0));
  report.setStatistic("stop_reason", obs::Json("ci-target"));
  report.setStatistic("adaptive", obs::Json(true));
  const obs::Json j = report.toJson();
  EXPECT_EQ(obs::RunReport::validate(j), "");
  EXPECT_EQ(j.find("schema")->asString(), "lpa-run-report/4");
  const obs::Json* st = j.find("statistics");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->find("traces_total")->asNumber(), 3712.0);
  EXPECT_EQ(st->find("stop_reason")->asString(), "ci-target");
  EXPECT_EQ(st->find("adaptive")->asBool(), true);

  // Whole-block replacement requires an object.
  obs::Json block = obs::Json::object();
  block["batches"] = obs::Json(15.0);
  report.setStatistics(block);
  EXPECT_EQ(report.toJson().find("statistics")->find("traces_total"),
            nullptr);
  EXPECT_THROW(report.setStatistics(obs::Json(1.0)), std::invalid_argument);
}

TEST(RunReport, ValidateRejectsRetiredAndUnknownSchemas) {
  const obs::Json j = makeReport().toJson();
  ASSERT_EQ(obs::RunReport::validate(j), "");

  // /4 is the only accepted version: a document labelled with a retired
  // version (/1-/3) or a future one (/5) is rejected even when its body
  // is a complete /4 document.
  for (const char* schema : {"lpa-run-report/1", "lpa-run-report/2",
                             "lpa-run-report/3", "lpa-run-report/5"}) {
    obs::Json other = j;
    other["schema"] = obs::Json(schema);
    EXPECT_NE(obs::RunReport::validate(other), "") << schema;
  }

  // Every block is required: a document shaped like an older version
  // (no profile; no resilience; no statistics) is rejected as /4.
  obs::Json shaped = j;
  for (const char* block : {"profile", "resilience", "statistics"}) {
    obs::Json without = obs::Json::object();
    for (const auto& [k, v] : shaped.items()) {
      if (k != block) without[k] = v;
    }
    shaped = without;
    EXPECT_NE(obs::RunReport::validate(shaped), "") << "without " << block;
  }
}

TEST(RunReport, ValidateRejectsMalformedResilience) {
  obs::Json j = makeReport().toJson();
  ASSERT_EQ(obs::RunReport::validate(j), "");  // empty block is fine

  obs::Json missing = obs::Json::object();
  for (const auto& [k, v] : j.items()) {
    if (k != "resilience") missing[k] = v;
  }
  EXPECT_NE(obs::RunReport::validate(missing), "");

  obs::Json notObject = j;
  notObject["resilience"] = obs::Json(1.0);
  EXPECT_NE(obs::RunReport::validate(notObject), "");

  obs::Json badFlag = j;
  badFlag["resilience"]["truncated"] = obs::Json("yes");
  EXPECT_NE(obs::RunReport::validate(badFlag), "");

  obs::Json negCount = j;
  negCount["resilience"]["groups_completed"] = obs::Json(-1.0);
  EXPECT_NE(obs::RunReport::validate(negCount), "");

  obs::Json badStop = j;
  badStop["resilience"]["stop_reason"] = obs::Json(2.0);
  EXPECT_NE(obs::RunReport::validate(badStop), "");

  obs::Json badLineage = j;
  badLineage["resilience"]["checkpoint_lineage"] = obs::Json::array();
  badLineage["resilience"]["checkpoint_lineage"].push_back(obs::Json(1.0));
  EXPECT_NE(obs::RunReport::validate(badLineage), "");

  obs::Json badEvent = j;
  obs::Json ev = obs::Json::object();
  ev["group"] = obs::Json(3.0);
  ev["reason"] = obs::Json("");  // empty reason: rejected
  badEvent["resilience"]["quarantine_events"] = obs::Json::array();
  badEvent["resilience"]["quarantine_events"].push_back(ev);
  EXPECT_NE(obs::RunReport::validate(badEvent), "");

  // A complete well-formed block validates.
  obs::Json good = j;
  obs::Json res = obs::Json::object();
  res["truncated"] = obs::Json(true);
  res["resumed"] = obs::Json(true);
  res["quarantined"] = obs::Json(true);
  res["groups_total"] = obs::Json(8.0);
  res["groups_completed"] = obs::Json(5.0);
  res["group_traces"] = obs::Json(128.0);
  res["retries"] = obs::Json(1.0);
  res["spot_checks"] = obs::Json(2.0);
  res["stop_reason"] = obs::Json("deadline");
  obs::Json lineage = obs::Json::array();
  lineage.push_back(obs::Json("g5/8:0123456789abcdef"));
  res["checkpoint_lineage"] = lineage;
  obs::Json events = obs::Json::array();
  obs::Json qe = obs::Json::object();
  qe["group"] = obs::Json(4.0);
  qe["reason"] = obs::Json("spot-check-mismatch");
  events.push_back(qe);
  res["quarantine_events"] = events;
  good["resilience"] = res;
  EXPECT_EQ(obs::RunReport::validate(good), "");
}

TEST(RunReport, ValidateRejectsMalformedStatistics) {
  obs::Json j = makeReport().toJson();

  obs::Json notObject = j;
  notObject["statistics"] = obs::Json(1.0);
  EXPECT_NE(obs::RunReport::validate(notObject), "");

  obs::Json negCount = j;
  negCount["statistics"]["traces_total"] = obs::Json(-5.0);
  EXPECT_NE(obs::RunReport::validate(negCount), "");

  obs::Json badStop = j;
  badStop["statistics"]["stop_reason"] = obs::Json(3.0);
  EXPECT_NE(obs::RunReport::validate(badStop), "");

  obs::Json badFlag = j;
  badFlag["statistics"]["adaptive"] = obs::Json("yes");
  EXPECT_NE(obs::RunReport::validate(badFlag), "");

  // Open block: unknown keys of any type are fine.
  obs::Json openKeys = j;
  openKeys["statistics"]["matrix"] = obs::Json::array();
  EXPECT_EQ(obs::RunReport::validate(openKeys), "");
}

TEST(RunReport, LedgerAppendAndValidate) {
  const std::string path = ::testing::TempDir() + "lpa_ledger_test.jsonl";
  std::remove(path.c_str());
  makeReport().appendTo(path);
  makeReport().appendTo(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    // Each line is one compact run report, nothing around it.
    const obs::Json entry = obs::Json::parse(line);
    EXPECT_EQ(obs::RunReport::validate(entry), "");
    EXPECT_EQ(entry.find("schema")->asString(), obs::RunReport::schemaId());
    EXPECT_EQ(entry.dump(-1), line);
  }
  EXPECT_EQ(lines, 2u);  // appendTo appends, never truncates
  std::remove(path.c_str());

  obs::Json bad = makeReport().toJson();
  bad["schema"] = obs::Json("lpa-run-report/9");
  EXPECT_NE(obs::RunReport::validate(bad), "");
  EXPECT_NE(obs::RunReport::validate(obs::Json::parse("{}")), "");
}

}  // namespace
}  // namespace lpa
