// bolt_peak_rss CMD [ARGS...] — runs CMD with this process's stdio, waits
// for it, and prints its peak resident set size as the last line on
// stderr:
//
//   bolt_peak_rss: peak RSS <KiB> KiB
//
// It exits with CMD's exit code (128 + the signal number if CMD was
// killed, 127 if it could not be started). The child is started with
// posix_spawnp from this small process, so its ru_maxrss is its own: a
// child forked from a large parent (a Python interpreter, say) inherits
// the parent's peak in ru_maxrss, and a program that stays below it
// cannot show a change.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

extern char** environ;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bolt_peak_rss CMD [ARGS...]\n");
    return 2;
  }
  pid_t pid = 0;
  const int err = posix_spawnp(&pid, argv[1], nullptr, nullptr, argv + 1,
                               environ);
  if (err != 0) {
    std::fprintf(stderr, "bolt_peak_rss: cannot run '%s': %s\n", argv[1],
                 std::strerror(err));
    return 127;
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::fprintf(stderr, "bolt_peak_rss: wait4: %s\n", std::strerror(errno));
      return 127;
    }
  }
  std::fprintf(stderr, "bolt_peak_rss: peak RSS %ld KiB\n", usage.ru_maxrss);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
