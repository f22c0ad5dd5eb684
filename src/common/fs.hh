/**
 * @file
 * Small filesystem helpers for the persistence layer.
 *
 * The one that matters is atomicWriteFile(): checkpoints are the
 * platform's crash-safety story, so a write interrupted by a power
 * cycle must never leave a half-written file under the final name.
 * Content goes to a sibling temporary, is flushed to stable storage,
 * and only then renamed over the target (rename within one directory
 * is atomic on POSIX filesystems).
 */

#ifndef E3_COMMON_FS_HH
#define E3_COMMON_FS_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.hh"

namespace e3 {

/** Create @p dir (and parents) if missing. */
Status ensureDirectory(const std::string &dir);

/** True if @p path names an existing regular file. */
[[nodiscard]] bool fileExists(const std::string &path);

/** readFile() reads in chunks of this many bytes. */
inline constexpr size_t kReadChunkBytes = 16 * 1024;

/**
 * Read a whole file into a string or, given @p stopLine, only up to the
 * first line that starts with it (that line excluded).
 */
Result<std::string> readFile(const std::string &path,
                             std::string_view stopLine = {});

/**
 * Crash-safe whole-file write: write @p content to a temporary in the
 * target's directory, flush it to disk, then atomically rename it to
 * @p path. Readers observe either the old file or the complete new
 * one, never a prefix.
 */
Status atomicWriteFile(const std::string &path,
                       const std::string &content);

/** Delete a file; missing files are not an error. */
Status removeFile(const std::string &path);

} // namespace e3

#endif // E3_COMMON_FS_HH
