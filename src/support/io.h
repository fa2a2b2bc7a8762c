// Small file I/O helpers shared by the artifact writers (contract JSON,
// monitor reports, adversarial trace pairs).
#pragma once

#include <string>

namespace bolt::support {

/// Writes `content` to `path`, returning false on any failure. A failed or
/// short write removes the file when `path` is a regular file: artifact
/// consumers (CI, a later deploy) must never find a truncated file where a
/// valid one is expected. Devices and symlinks are left in place.
bool write_file(const std::string& path, const std::string& content);

/// Reads the whole file. Aborts on a missing file, a read error, or an
/// empty file (`what` names the artifact kind in the message — a zero-byte
/// artifact is always a truncated write, never valid input).
std::string read_file_or_die(const std::string& path, const std::string& what);

}  // namespace bolt::support
