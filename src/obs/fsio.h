#pragma once
// Durable file IO primitives shared by the run-report writer, the run
// ledger, and the acquisition checkpoints (jobs/checkpoint.h).
//
// The crash model: the process can die at any instruction (SIGKILL, OOM
// kill, node preemption). A reader that later opens the file must never
// observe a half-written document.
//
//   * atomicWriteFile gives all-or-nothing replacement: the bytes go to a
//     temp file in the same directory, are flushed and fsync'd, and the
//     temp is rename(2)'d over the target — POSIX rename is atomic, so a
//     reader sees either the complete old content or the complete new
//     content, never a mix. A crash mid-write leaves at most a stale
//     "<path>.tmp.<pid>" behind.
//   * durableAppend gives at-most-one-torn-tail appends, for JSONL ledger
//     lines and binary checkpoint records alike: the bytes are appended
//     and fsync'd before close, so once the call returns they survive
//     power loss, and a crash mid-append can only tear the *last* append
//     (which ledger readers skip with a warning — tools/lpa_dashboard.py,
//     tools/leakage_gate.py — and checkpoint loads drop by its checksum).

#include <string>

namespace lpa::obs {

/// Atomically replaces `path` with `data` (write temp + fsync + rename).
/// Throws std::runtime_error on IO failure; the target is left untouched.
void atomicWriteFile(const std::string& path, const std::string& data);

/// Appends `data` (a ledger line includes its trailing newline) to `path`,
/// creating it if absent, and fsyncs before closing so the append is
/// durable when the call returns. Throws std::runtime_error on IO failure.
void durableAppend(const std::string& path, const std::string& data);

}  // namespace lpa::obs
