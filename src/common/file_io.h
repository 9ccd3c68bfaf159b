// Whole-file reads and writes: bench artifacts, exporter recordings, repro
// and schedule files, threshold-cache entries and daemon snapshots are
// rendered to a string first and written here, with the open, the write and
// the close all checked, and read back whole through ReadFile. (Kernel-event
// trace captures, which can run to hundreds of MB, stream through
// WriteTraceFile/ReadTraceFile instead.) A buffered write can fail only at
// close (ENOSPC on a full disk), so a writer that skips the close check
// reports success for a file that was never written.

#ifndef RHYTHM_SRC_COMMON_FILE_IO_H_
#define RHYTHM_SRC_COMMON_FILE_IO_H_

#include <string>

namespace rhythm {

// Creates or truncates `path` and writes `bytes` to it. False when the open,
// the write or the close fails; a failed write may leave a partial file.
bool WriteFile(const std::string& path, const std::string& bytes);

// Reads all of `path` into *bytes. False, with *bytes untouched, when the
// open or any read fails — a missing path or a directory among them.
bool ReadFile(const std::string& path, std::string* bytes);

// ReadFile's read loop on an open descriptor (stdin is 0): reads `fd` to
// end of file into *bytes. False, with *bytes untouched, when any read
// fails (EISDIR for a directory). Leaves `fd` open.
bool ReadFd(int fd, std::string* bytes);

// Publishes `bytes` at `path` so a concurrent reader opens either the old
// complete file or the new one: writes a unique `<path>.tmp.<pid>.<n>`
// sibling, then renames it over `path` (atomic within a filesystem). On any
// failure returns false, leaves `path` as it was and removes the staging
// file. Concurrent calls on one path never share a staging file. `path`
// must name a regular file: the rename replaces whatever node is there.
bool WriteFileAtomic(const std::string& path, const std::string& bytes);

}  // namespace rhythm

#endif  // RHYTHM_SRC_COMMON_FILE_IO_H_
