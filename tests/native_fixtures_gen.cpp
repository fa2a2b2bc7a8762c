// bolt_fixturegen OUT.cpp — writes the native code of the test fixtures in
// tests/native_fixtures.h, as the table fixture_native_table().
#include <cstdio>

#include "ir/native.h"
#include "native_fixtures.h"
#include "support/io.h"

int main(int argc, char** argv) {
  using namespace bolt;
  if (argc != 2) {
    std::fprintf(stderr, "usage: bolt_fixturegen OUT.cpp\n");
    return 2;
  }
  const std::vector<ir::Program> programs = fixtures::native_fixtures();
  std::vector<const ir::Program*> pointers;
  for (const ir::Program& p : programs) pointers.push_back(&p);
  if (!support::write_file(
          argv[1], ir::emit_native_source(pointers, "fixture_native_table"))) {
    std::fprintf(stderr, "bolt_fixturegen: cannot write '%s'\n", argv[1]);
    return 1;
  }
  return 0;
}
