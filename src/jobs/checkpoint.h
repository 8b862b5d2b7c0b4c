#pragma once
// Append-only acquisition checkpoints (DESIGN.md §12).
//
// A checkpoint is the committed trace prefix of one resilient acquisition
// (jobs/resilient.h), kept as an append-only log. A header binds the file
// to one logical run through a config fingerprint (netlist structure,
// seed, protocol knobs — NOT engine or thread count, because resuming
// under a different engine or thread count must be legal and
// bit-identical); each committed group then appends one record holding
// its own traces. Nothing else is stored: the streaming estimator, the
// checkpoint lineage and the group count are functions of the traces, so
// a resumed run rebuilds them from the loaded prefix.
//
// ## Format `LPACKPT2`
//
//   header  magic[8] | fingerprint u64 | numSamples u32 | groupTraces u32
//           | FNV-1a of those 24 bytes (u64)
//   record  count u32 | count labels (u8) | count × numSamples samples
//           (f64) | FNV-1a of the record's preceding bytes (u64)
//
// ## Crash model
//
// startCheckpoint() writes the header through obs::atomicWriteFile, so the
// path holds either the previous file or the new header, never a mix.
// appendCheckpoint() appends one record and fsyncs it (obs::durableAppend),
// so a kill can tear only the record being appended. loadCheckpoint()
// bounds every length before it allocates and verifies every checksum: a
// bad header loads as absent, and a torn or corrupt record ends the
// committed prefix — the whole records before it load, and `endBytes`
// tells the resuming run where to cut the file before it appends.
//
// The format is a same-machine artifact (host byte order), not an
// interchange format: a checkpoint is consumed by the process lineage
// that wrote it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace_set.h"

namespace lpa::jobs {

/// What the header binds a checkpoint to.
struct CheckpointHeader {
  /// acquisitionFingerprint() (jobs/resilient.h) over netlist digest +
  /// protocol config, which folds the seed and the group geometry too.
  /// Loads whose fingerprint differs are rejected by the resilient runner.
  std::uint64_t fingerprint = 0;
  std::uint32_t numSamples = 0;
  /// Traces per group (fixed-schedule runs) or the adaptive batch size;
  /// no record holds more.
  std::uint32_t groupTraces = 0;

  bool operator==(const CheckpointHeader&) const = default;
};

/// The committed prefix of a checkpoint file.
struct Checkpoint {
  CheckpointHeader header;
  /// The traces of every whole record, in file order.
  TraceSet traces{0};
  /// Trace count of each whole record (one record per committed group).
  std::vector<std::uint32_t> recordTraces;
  /// Byte offset where the last whole record ends (the header's end when
  /// there is none); a torn or corrupt tail starts here.
  std::uint64_t endBytes = 0;
};

/// Atomically replaces `path` with a header and no records; throws
/// std::runtime_error on IO failure.
void startCheckpoint(const std::string& path, const CheckpointHeader& header);

/// Appends traces [begin, end) of `traces` (begin < end) to `path` as one
/// record and fsyncs it; throws std::runtime_error on IO failure.
void appendCheckpoint(const std::string& path, const TraceSet& traces,
                      std::size_t begin, std::size_t end);

/// Loads the committed prefix of `path`. Returns std::nullopt when the
/// file is missing or its header is short, corrupt or of another format;
/// if `whyNot` is non-null it receives the reason ("" on success, or why
/// the prefix ended early at a torn or corrupt record).
std::optional<Checkpoint> loadCheckpoint(const std::string& path,
                                         std::string* whyNot = nullptr);

}  // namespace lpa::jobs
