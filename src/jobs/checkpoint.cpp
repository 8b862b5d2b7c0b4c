#include "jobs/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "jobs/trace_digest.h"
#include "obs/fsio.h"

namespace lpa::jobs {

namespace {

constexpr char kCheckpointMagic[8] = {'L', 'P', 'A', 'C', 'K', 'P', 'T', '2'};
/// Magic, fingerprint, numSamples, groupTraces, checksum.
constexpr std::uint64_t kHeaderBytes = sizeof(kCheckpointMagic) + 8 + 4 + 4 + 8;
/// A record's count field and checksum.
constexpr std::uint64_t kRecordFrameBytes = 4 + 8;

/// Appends the host-order bytes of `n` values at `data`.
template <typename T>
void put(std::string& out, const T* data, std::size_t n = 1) {
  out.append(reinterpret_cast<const char*>(data), n * sizeof(T));
}

/// Reads exactly `n` values into `data`; false on a short read.
template <typename T>
bool get(std::FILE* f, T* data, std::size_t n = 1) {
  return std::fread(data, sizeof(T), n, f) == n;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

std::optional<Checkpoint> fail(std::string* whyNot, const char* reason) {
  if (whyNot) *whyNot = reason;
  return std::nullopt;
}

}  // namespace

void startCheckpoint(const std::string& path, const CheckpointHeader& header) {
  std::string buf;
  put(buf, kCheckpointMagic, sizeof(kCheckpointMagic));
  put(buf, &header.fingerprint);
  put(buf, &header.numSamples);
  put(buf, &header.groupTraces);
  const std::uint64_t sum = digestOfBytes(buf.data(), buf.size());
  put(buf, &sum);
  obs::atomicWriteFile(path, buf);
}

void appendCheckpoint(const std::string& path, const TraceSet& traces,
                      std::size_t begin, std::size_t end) {
  const auto count = static_cast<std::uint32_t>(end - begin);
  const std::size_t values = std::size_t{count} * traces.numSamples();
  std::string rec;
  rec.reserve(kRecordFrameBytes + count + values * sizeof(double));
  put(rec, &count);
  for (std::size_t i = begin; i < end; ++i) {
    rec.push_back(static_cast<char>(traces.label(i)));
  }
  put(rec, traces.trace(begin), values);
  const std::uint64_t sum = digestOfBytes(rec.data(), rec.size());
  put(rec, &sum);
  obs::durableAppend(path, rec);
}

std::optional<Checkpoint> loadCheckpoint(const std::string& path,
                                         std::string* whyNot) {
  if (whyNot) whyNot->clear();
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  std::FILE* f = file.get();
  if (!f) return fail(whyNot, "no checkpoint file");
  // The file size bounds every record before it is allocated.
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    return fail(whyNot, "read error");
  }
  const auto fileBytes = static_cast<std::uint64_t>(size);

  Checkpoint cp;
  CheckpointHeader& h = cp.header;
  char magic[sizeof(kCheckpointMagic)] = {};
  std::uint64_t sum = 0;
  if (!get(f, magic, sizeof(magic)) || !get(f, &h.fingerprint) ||
      !get(f, &h.numSamples) || !get(f, &h.groupTraces) || !get(f, &sum)) {
    return fail(whyNot, "truncated header");
  }
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return fail(whyNot, "bad magic");
  }
  DigestAccumulator headerSum;
  headerSum.addBytes(magic, sizeof(magic));
  headerSum.addBytes(&h.fingerprint, sizeof(h.fingerprint));
  headerSum.addBytes(&h.numSamples, sizeof(h.numSamples));
  headerSum.addBytes(&h.groupTraces, sizeof(h.groupTraces));
  if (headerSum.value() != sum) {
    return fail(whyNot, "header checksum mismatch");
  }
  if (h.numSamples == 0 || h.groupTraces == 0) {
    return fail(whyNot, "empty group geometry");
  }

  // Records, until the file ends or one is torn or corrupt: that one and
  // everything after it are not part of the committed prefix.
  const std::uint64_t traceBytes = 1 + std::uint64_t{8} * h.numSamples;
  std::vector<std::uint8_t> labels;
  std::vector<double> samples;
  std::uint64_t pos = kHeaderBytes;
  const char* tail = "";
  while (pos < fileBytes) {
    std::uint32_t count = 0;
    if (fileBytes - pos < kRecordFrameBytes || !get(f, &count)) {
      tail = "torn record";
      break;
    }
    if (count == 0 || count > h.groupTraces ||
        count > (fileBytes - pos - kRecordFrameBytes) / traceBytes) {
      tail = "torn or corrupt record length";
      break;
    }
    const std::size_t labelsAt = labels.size();
    const std::size_t samplesAt = samples.size();
    const std::size_t values = std::size_t{count} * h.numSamples;
    labels.resize(labelsAt + count);
    samples.resize(samplesAt + values);
    bool ok = get(f, labels.data() + labelsAt, count) &&
              get(f, samples.data() + samplesAt, values) && get(f, &sum);
    if (ok) {
      DigestAccumulator recordSum;
      recordSum.addBytes(&count, sizeof(count));
      recordSum.addBytes(labels.data() + labelsAt, count);
      recordSum.addBytes(samples.data() + samplesAt, values * sizeof(double));
      ok = recordSum.value() == sum &&
           std::all_of(labels.begin() + static_cast<std::ptrdiff_t>(labelsAt),
                       labels.end(), [&](std::uint8_t label) {
                         return label < cp.traces.numClasses();
                       });
    }
    if (!ok) {
      labels.resize(labelsAt);
      samples.resize(samplesAt);
      tail = "torn or corrupt record";
      break;
    }
    cp.recordTraces.push_back(count);
    pos += kRecordFrameBytes + count * traceBytes;
  }
  cp.endBytes = pos;
  cp.traces = TraceSet(h.numSamples, std::move(labels), std::move(samples));
  if (whyNot) *whyNot = tail;
  return cp;
}

}  // namespace lpa::jobs
