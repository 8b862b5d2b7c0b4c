#include "jobs/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "jobs/trace_digest.h"
#include "obs/fsio.h"
#include "stats/serial.h"

namespace lpa::jobs {

namespace {

void putBytes(std::vector<std::uint8_t>& out, const void* data,
              std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, data, n);
}

std::optional<Checkpoint> fail(std::string* whyNot, const char* reason) {
  if (whyNot) *whyNot = reason;
  return std::nullopt;
}

}  // namespace

void saveCheckpoint(const std::string& path, const Checkpoint& cp) {
  std::vector<std::uint8_t> buf;
  putBytes(buf, kCheckpointMagic, sizeof(kCheckpointMagic));
  stats::serial::putU64(buf, cp.fingerprint);
  stats::serial::putU64(buf, cp.seed);
  stats::serial::putU32(buf, cp.numSamples);
  stats::serial::putU32(buf, cp.groupTraces);
  stats::serial::putU64(buf, cp.groupsTotal);
  stats::serial::putU64(buf, cp.completedGroups);
  stats::serial::putU64(buf, cp.groupDigests.size());
  for (std::uint64_t d : cp.groupDigests) stats::serial::putU64(buf, d);
  stats::serial::putU64(buf, cp.lineage.size());
  for (const std::string& s : cp.lineage) {
    stats::serial::putU64(buf, s.size());
    putBytes(buf, s.data(), s.size());
  }
  stats::serial::putU64(buf, cp.traces.size());
  for (std::size_t i = 0; i < cp.traces.size(); ++i) {
    buf.push_back(cp.traces.label(i));
    putBytes(buf, cp.traces.trace(i), cp.numSamples * sizeof(double));
  }
  stats::serial::putU64(buf, cp.streamState.size());
  putBytes(buf, cp.streamState.data(), cp.streamState.size());
  stats::serial::putU64(buf, digestOfBytes(buf.data(), buf.size()));

  obs::atomicWriteFile(
      path, std::string(reinterpret_cast<const char*>(buf.data()),
                        buf.size()));
}

std::optional<Checkpoint> loadCheckpoint(const std::string& path,
                                         std::string* whyNot) {
  if (whyNot) whyNot->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return fail(whyNot, "no checkpoint file");
  std::vector<std::uint8_t> buf;
  {
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      buf.insert(buf.end(), chunk, chunk + got);
    }
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError) return fail(whyNot, "read error");
  }

  using stats::serial::getU32;
  using stats::serial::getU64;
  const std::size_t size = buf.size();
  if (size < sizeof(kCheckpointMagic) + sizeof(std::uint64_t)) {
    return fail(whyNot, "file too short");
  }
  if (std::memcmp(buf.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return fail(whyNot, "bad magic");
  }
  // Whole-file checksum first: any torn tail or flipped byte fails here
  // before we interpret a single length field.
  const std::size_t body = size - sizeof(std::uint64_t);
  std::uint64_t storedSum = 0;
  {
    std::size_t pos = body;
    if (!getU64(buf.data(), size, pos, storedSum)) {
      return fail(whyNot, "file too short");
    }
  }
  if (digestOfBytes(buf.data(), body) != storedSum) {
    return fail(whyNot, "checksum mismatch (torn or corrupt file)");
  }

  Checkpoint cp;
  std::size_t pos = sizeof(kCheckpointMagic);
  std::uint64_t numDigests = 0, numLineage = 0, numTraces = 0,
                streamLen = 0;
  if (!getU64(buf.data(), body, pos, cp.fingerprint) ||
      !getU64(buf.data(), body, pos, cp.seed) ||
      !getU32(buf.data(), body, pos, cp.numSamples) ||
      !getU32(buf.data(), body, pos, cp.groupTraces) ||
      !getU64(buf.data(), body, pos, cp.groupsTotal) ||
      !getU64(buf.data(), body, pos, cp.completedGroups) ||
      !getU64(buf.data(), body, pos, numDigests)) {
    return fail(whyNot, "truncated header");
  }
  if (cp.numSamples == 0) return fail(whyNot, "zero samples per trace");
  if (numDigests != cp.completedGroups ||
      numDigests > (body - pos) / sizeof(std::uint64_t)) {
    return fail(whyNot, "group-digest count inconsistent");
  }
  cp.groupDigests.resize(numDigests);
  for (std::uint64_t i = 0; i < numDigests; ++i) {
    if (!getU64(buf.data(), body, pos, cp.groupDigests[i])) {
      return fail(whyNot, "truncated group digests");
    }
  }
  if (!getU64(buf.data(), body, pos, numLineage) ||
      numLineage > body - pos) {
    return fail(whyNot, "lineage count inconsistent");
  }
  cp.lineage.reserve(numLineage);
  for (std::uint64_t i = 0; i < numLineage; ++i) {
    std::uint64_t len = 0;
    if (!getU64(buf.data(), body, pos, len) || len > body - pos) {
      return fail(whyNot, "truncated lineage entry");
    }
    cp.lineage.emplace_back(reinterpret_cast<const char*>(buf.data() + pos),
                            len);
    pos += len;
  }
  const std::size_t traceBytes =
      1 + static_cast<std::size_t>(cp.numSamples) * sizeof(double);
  if (!getU64(buf.data(), body, pos, numTraces) ||
      numTraces > (body - pos) / traceBytes) {
    return fail(whyNot, "trace count inconsistent");
  }
  cp.traces = TraceSet(cp.numSamples);
  cp.traces.reserve(numTraces);
  for (std::uint64_t i = 0; i < numTraces; ++i) {
    const std::uint8_t label = buf[pos++];
    if (label >= cp.traces.numClasses()) {
      return fail(whyNot, "trace label out of range");
    }
    std::vector<double> samples(cp.numSamples);
    std::memcpy(samples.data(), buf.data() + pos,
                cp.numSamples * sizeof(double));
    pos += cp.numSamples * sizeof(double);
    cp.traces.add(label, std::move(samples));
  }
  if (!getU64(buf.data(), body, pos, streamLen) ||
      streamLen > body - pos) {
    return fail(whyNot, "stream-state length inconsistent");
  }
  cp.streamState.assign(buf.data() + pos, buf.data() + pos + streamLen);
  pos += streamLen;
  if (pos != body) return fail(whyNot, "trailing bytes after payload");
  return cp;
}

}  // namespace lpa::jobs
