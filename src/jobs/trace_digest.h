#pragma once
// Order-sensitive FNV-1a determinism digests over trace data — the single
// FNV-1a of src/jobs, shared by the benches (bench/bench_util.h aliases
// this class), the checkpoint/resume layer (jobs/checkpoint.h: header and
// record checksums), the acquisition fingerprint, the checkpoint lineage
// and its flow ids and the engine-quarantine spot-check
// (jobs/resilient.h).
//
// The digest folds the exact IEEE-754 bit patterns of doubles, so equal
// digests <=> bit-identical traces: it is the currency of every
// cross-engine / cross-thread-count / kill-resume bit-identity proof in
// this repo. The trace-set folding order (label as double, then the
// samples, trace by trace in index order) is pinned by BENCH_baseline.json
// — changing it invalidates every recorded determinism digest.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "trace/trace_set.h"

namespace lpa::jobs {

class DigestAccumulator {
 public:
  void add(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    addU64(bits);
  }
  /// Folds the 8 bytes of `bits` little-end first (the byte order add()
  /// uses for a double's pattern, so mixed u64/double streams are
  /// well-defined).
  void addU64(std::uint64_t bits) {
    for (int b = 0; b < 64; b += 8) {
      hash_ ^= (bits >> b) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  /// Folds `n` bytes in memory order.
  void addBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  /// Folds one trace: its label (as a double, the historical bench
  /// encoding) then its `numSamples` samples.
  void addTrace(std::uint8_t label, const double* x,
                std::uint32_t numSamples) {
    add(static_cast<double>(label));
    for (std::uint32_t s = 0; s < numSamples; ++s) add(x[s]);
  }
  /// Folds traces [begin, end) of `ts` in index order.
  void addRange(const TraceSet& ts, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      addTrace(ts.label(i), ts.trace(i), ts.numSamples());
    }
  }
  void addTraceSet(const TraceSet& ts) { addRange(ts, 0, ts.size()); }

  std::uint64_t value() const { return hash_; }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

/// Digest of traces [begin, end) of `ts` (the spot-check compares a
/// group's digest with its reference re-run's).
inline std::uint64_t digestOfRange(const TraceSet& ts, std::size_t begin,
                                   std::size_t end) {
  DigestAccumulator d;
  d.addRange(ts, begin, end);
  return d.value();
}

inline std::uint64_t digestOfTraceSet(const TraceSet& ts) {
  return digestOfRange(ts, 0, ts.size());
}

/// Digest of `n` bytes (checkpoint header and record checksums, lineage
/// flow ids).
inline std::uint64_t digestOfBytes(const void* data, std::size_t n) {
  DigestAccumulator d;
  d.addBytes(data, n);
  return d.value();
}

}  // namespace lpa::jobs
