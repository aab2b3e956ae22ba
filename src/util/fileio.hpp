// Atomic whole-file I/O shared by everything that persists state: the
// model cache (nn::save_model), per-user personalization deltas
// (nn/delta.hpp) and serve snapshots (serve/snapshot.hpp). Writes go to
// `<path>.tmp.<pid>` and are renamed over `path` only after the stream
// flushed and closed cleanly — rename(2) within one directory is atomic
// on POSIX, so readers (and concurrent writers racing on a cold cache)
// only ever see a complete file, and a failed write never leaves a stale
// temp file behind.
#pragma once

#include <string>

namespace origin::util {

/// The temp-file name write_file_atomic() stages through (exposed so
/// tests can provoke collisions and crash-cleanup scenarios).
std::string atomic_tmp_path(const std::string& path);

/// Writes `bytes` to `path` atomically. Throws std::runtime_error when
/// the temp file cannot be opened, written, flushed or renamed; on every
/// error path the temp file is removed before throwing.
void write_file_atomic(const std::string& path, const std::string& bytes);

/// Whole-file read; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

}  // namespace origin::util
