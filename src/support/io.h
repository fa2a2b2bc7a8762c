// Small file I/O helpers shared by the artifact writers (contract JSON,
// monitor reports, adversarial trace pairs).
#pragma once

#include <string>

namespace bolt::support {

/// Writes `content` to `path`, returning false on any failure. When `path`
/// is missing or a regular file, the bytes are written to `.<name>.tmp.<pid>`
/// in the same directory and renamed over `path`, so a concurrent reader
/// (`bolt merge` beside a live fleet, a scraper of `--metrics-out`) sees the
/// old file or the new one, never a half-written one; a failed write removes
/// the temp file and leaves `path` as it was. Any other target (a device, a
/// symlink, a FIFO) is written in place and never removed.
bool write_file(const std::string& path, const std::string& content);

/// Reads the whole file. Aborts on a missing file, a read error, or an
/// empty file (`what` names the artifact kind in the message — a zero-byte
/// artifact is always a truncated write, never valid input).
std::string read_file_or_die(const std::string& path, const std::string& what);

}  // namespace bolt::support
