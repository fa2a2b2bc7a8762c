#include "support/io.h"

#include <sys/stat.h>

#include <cstdio>

#include "support/assert.h"

namespace bolt::support {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose can surface the real write error (buffered I/O, disk full).
  if (std::fclose(f) != 0 || !wrote) {
    // Only a regular file can hold a truncated artifact. A device node
    // (/dev/full) or a symlink is never removed.
    struct stat st;
    if (::lstat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      std::remove(path.c_str());
    }
    return false;
  }
  return true;
}

std::string read_file_or_die(const std::string& path, const std::string& what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  BOLT_CHECK(f != nullptr, "cannot open " + what + " '" + path + "'");
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  BOLT_CHECK(!read_error, "I/O error reading " + what + " '" + path + "'");
  BOLT_CHECK(!out.empty(), "empty " + what + " '" + path +
                               "' (truncated write?)");
  return out;
}

}  // namespace bolt::support
