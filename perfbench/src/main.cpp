// Repository benchmark program: runs one workload for a fixed time, checks
// its outputs, and prints one JSON object as the last line of stdout.
//
//   perfbench --workload <fig7-matrix|adaptive-sweep|fault-campaign>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// --trace 0 repeats the workload through the calls users make and reports
// the end-to-end metrics. --trace 1 alternates those repetitions with
// traced ones (the same work broken into per-layer calls, one span each),
// runs the per-layer probes, and reports the per-layer metrics plus the
// tracing overhead. perfbench/run.py builds this binary and compares the
// printed digests with the pinned ones.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spansPath;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               msg);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spansPath = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Unit of each metric, by the metric family its name starts with.
std::string unitOf(const std::string& name) {
  static const std::pair<const char*, const char*> kUnits[] = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"traces_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
      {"sim.events_per_trace.", "count"},
      {"sim.commit_ratio.", "ratio"},
      {"trace.parallel_efficiency.", "ratio"},
      {"fault.parallel_efficiency.", "ratio"},
      {"fault.ms_per_fault.", "ms"},
  };
  for (const auto& [prefix, unit] : kUnits) {
    if (name.rfind(prefix, 0) == 0) return unit;
  }
  if (name.find("_ns_per_trace") != std::string::npos) return "ns";
  if (name.find("_ms") != std::string::npos) return "ms";
  if (name.find("_pct") != std::string::npos) return "%";
  return "1";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const Workload* workload = findWorkload(args.workload);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  Context ctx;
  ctx.seed = args.seed;
  Checks checks;
  Tracer tracer;
  std::vector<Iteration> plain, traced;
  const auto t0 = Clock::now();
  // With tracing, untraced and traced repetitions alternate, each pair in
  // the opposite order of the last, so neither side always runs cold.
  const auto runTraced = [&] {
    Tracer::Scope span(&tracer, "workload");
    traced.push_back(workload->run(ctx, &tracer, checks));
  };
  // Peak memory of one pass from a fresh process: later repetitions only
  // add allocator-arena growth that depends on thread timing.
  double peakRss = 0.0;
  // A traced run does two repetitions per pass and then the probes: half the
  // time budget keeps it near --seconds before the probes start.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  for (std::size_t i = 0; i == 0 || secondsSince(t0) < budget; ++i) {
    const bool tracedFirst = args.trace && i % 2 == 1;
    if (tracedFirst) runTraced();
    plain.push_back(workload->run(ctx, nullptr, checks));
    if (i == 0) peakRss = peakRssMb();
    if (args.trace && !tracedFirst) runTraced();
  }

  // Every repetition, traced or not, must reproduce the first one's
  // seed-determined outputs bit for bit.
  std::vector<const Iteration*> all;
  for (const Iteration& it : plain) all.push_back(&it);
  for (const Iteration& it : traced) all.push_back(&it);
  for (std::size_t i = 1; i < all.size(); ++i) {
    checks.expect(all[i]->digests == all[0]->digests,
                  "repetition " + std::to_string(i) +
                      " reproduces the first repetition's outputs");
  }
  std::map<std::string, std::string> digests = all[0]->digests;
  if (workload->verify != nullptr) {
    for (const auto& [k, v] : workload->verify(ctx, *all[0], checks)) {
      digests[k] = v;
    }
  }

  std::map<std::string, double> metrics;
  const auto medianOf = [](const std::vector<Iteration>& its, auto field) {
    std::vector<double> v;
    for (const Iteration& it : its) v.push_back(field(it));
    return median(v);
  };
  const auto wall = [](const Iteration& it) { return it.wallS; };
  if (!args.trace) {
    metrics["wall_s"] = medianOf(plain, wall);
    metrics["setup_s"] =
        medianOf(plain, [](const Iteration& it) { return it.setupS; });
    metrics["traces_per_s"] = medianOf(plain, [](const Iteration& it) {
      return static_cast<double>(it.traces) / (it.wallS - it.setupS);
    });
    metrics["peak_rss_mb"] = peakRss;
  } else {
    metrics = runLayerProbes(ctx, *workload, tracer, checks);
    metrics["bench.tracing_overhead_pct"] =
        (medianOf(traced, wall) / medianOf(plain, wall) - 1.0) * 100.0;
    if (!args.spansPath.empty() && !tracer.writeJson(args.spansPath)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spansPath.c_str());
    }
  }

  std::fprintf(stderr, "perfbench: wall_s per repetition:");
  for (const Iteration& it : plain) std::fprintf(stderr, " %.4f", it.wallS);
  std::fprintf(stderr, "\n");
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::string out = "{\"correct\": ";
  out += checks.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted);
  out += ", \"failed\": " + std::to_string(checks.failed);
  out += ", \"repetitions\": " + std::to_string(plain.size());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", value);
    out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " + num +
           ", \"unit\": " + jsonString(unitOf(name)) + "}";
    first = false;
  }
  out += "}, \"digests\": {";
  first = true;
  for (const auto& [k, v] : digests) {
    out += (first ? "" : ", ") + jsonString(k) + ": " + jsonString(v);
    first = false;
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    out += (i ? ", " : "") + jsonString(checks.failures[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
