#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "jobs/trace_digest.h"

namespace perfbench {

std::vector<lpa::SboxStyle> maskedStyles() {
  using lpa::SboxStyle;
  return {SboxStyle::Glut, SboxStyle::Rsm, SboxStyle::RsmRom, SboxStyle::Isw,
          SboxStyle::Ti};
}

std::string styleKey(lpa::SboxStyle s) {
  switch (s) {
    case lpa::SboxStyle::Lut:
      return "LUT";
    case lpa::SboxStyle::Opt:
      return "OPT";
    default:
      return std::string(lpa::sboxStyleName(s));
  }
}

lpa::ExperimentConfig experimentConfig(const Context& ctx) {
  lpa::ExperimentConfig cfg;
  cfg.acquisition.seed = ctx.acquisitionSeed();
  return cfg;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string style)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.style = std::move(style);
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  s.beginUs = tracer_->nowUs();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].endUs = tracer_->nowUs();
  tracer_->open_.pop_back();
}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

bool Tracer::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"style\": \"%s\"}}%s\n",
                 s.name.c_str(), s.beginUs, s.endUs - s.beginUs, i, s.parent,
                 s.style.c_str(), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::string estimateDigest(const lpa::stats::LeakageEstimate& e) {
  lpa::jobs::DigestAccumulator d;
  d.addU64(e.traces);
  d.addU64(e.minClassCount);
  for (double v : {e.total, e.singleBit, e.multiBit, e.singleBitRatio}) {
    d.add(v);
  }
  for (const lpa::stats::AggregateCi* ci :
       {&e.totalCi, &e.singleBitCi, &e.multiBitCi}) {
    d.add(ci->estimate);
    d.add(ci->halfWidth);
  }
  for (const lpa::stats::CoefficientCi& c : e.coefficients) {
    d.add(c.energy);
    d.add(c.halfWidth);
  }
  return d.hex();
}

std::string traceDigest(const lpa::TraceSet& ts) {
  lpa::jobs::DigestAccumulator d;
  d.addTraceSet(ts);
  return d.hex();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint32_t hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
