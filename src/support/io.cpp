#include "support/io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "support/assert.h"

namespace bolt::support {

bool write_file(const std::string& path, const std::string& content) {
  // A missing target or a regular file is published whole: the bytes go to
  // a hidden temp file beside it, which is renamed over the target. Any
  // other target (a device, a symlink, a FIFO) is written in place.
  struct stat st;
  const bool publish = ::lstat(path.c_str(), &st) == 0 ? S_ISREG(st.st_mode)
                                                       : errno == ENOENT;
  std::string target = path;
  if (publish) {
    const std::size_t slash = path.rfind('/');
    const std::size_t name = slash == std::string::npos ? 0 : slash + 1;
    target = path.substr(0, name) + "." + path.substr(name) + ".tmp." +
             std::to_string(::getpid());
  }
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose can surface the real write error (buffered I/O, disk full).
  const bool closed = std::fclose(f) == 0;
  if (!publish) return wrote && closed;
  if (!wrote || !closed || std::rename(target.c_str(), path.c_str()) != 0) {
    std::remove(target.c_str());
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
