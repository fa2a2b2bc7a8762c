// bolt_nativegen OUT.cpp — writes the native code of every registered NF
// program (see ir/native.h). The build runs it over the core objects and
// compiles OUT.cpp into the bolt library; it is deterministic, so two runs
// write the same bytes.
#include <cstdio>
#include <set>

#include "core/targets.h"
#include "ir/native.h"
#include "support/io.h"

// The generator runs before any native code exists: its table is empty, so
// every program it links runs on the reference engine.
bolt::support::Span<const bolt::ir::NativeEntry> bolt::ir::native_table() {
  return {};
}

int main(int argc, char** argv) {
  using namespace bolt;
  if (argc != 2) {
    std::fprintf(stderr, "usage: bolt_nativegen OUT.cpp\n");
    return 2;
  }
  std::vector<core::NfTarget> targets;
  targets.reserve(core::named_targets().size());  // programs point into them
  std::vector<const ir::Program*> programs;
  std::set<std::uint64_t> seen;
  perf::PcvRegistry reg;
  for (const std::string& name : core::named_targets()) {
    core::NfTarget& target = targets.emplace_back();
    if (!core::make_named_target(name, reg, target)) return 1;
    for (const ir::Program* p : target.programs()) {
      if (seen.insert(ir::program_fingerprint(*p)).second) {
        programs.push_back(p);
      }
    }
  }
  if (!support::write_file(argv[1], ir::emit_native_source(programs))) {
    std::fprintf(stderr, "bolt_nativegen: cannot write '%s'\n", argv[1]);
    return 1;
  }
  return 0;
}
