#include "obs/fsio.h"

#include <cstdio>
#include <stdexcept>

#include <unistd.h>

namespace lpa::obs {

namespace {

/// Writes + flushes + fsyncs `data` into `f`. Returns false on any failure.
bool writeAll(std::FILE* f, const std::string& data) {
  if (!data.empty() &&
      std::fwrite(data.data(), 1, data.size(), f) != data.size()) {
    return false;
  }
  if (std::fflush(f) != 0) return false;
  return ::fsync(::fileno(f)) == 0;
}

}  // namespace

void atomicWriteFile(const std::string& path, const std::string& data) {
  // Same-directory temp so the rename never crosses a filesystem; the pid
  // suffix keeps concurrent writers from clobbering each other's temp.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) {
    throw std::runtime_error("atomicWriteFile: cannot open temp file: " + tmp);
  }
  const bool ok = writeAll(f, data);
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("atomicWriteFile: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("atomicWriteFile: rename to " + path + " failed");
  }
}

void durableAppend(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) {
    throw std::runtime_error("durableAppend: cannot open " + path);
  }
  const bool ok = writeAll(f, data);
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("durableAppend: short write to " + path);
  }
}

}  // namespace lpa::obs
