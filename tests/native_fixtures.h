// Hand-built programs that get native code for the tests only.
//
// The build runs tests/native_fixtures_gen.cpp over native_fixtures(), the
// way bolt_nativegen runs over the registered NFs, and links the result
// (fixture_native_table()) into test_decoded. The library's table never
// sees these programs, so NfRunner runs them on the reference engine; the
// tests construct ir::NativeEngine from fixture_native_table() directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/builder.h"
#include "ir/native.h"

namespace bolt {

/// The generated table of native_fixtures() (defined in the generated
/// source).
support::Span<const ir::NativeEntry> fixture_native_table();

namespace fixtures {

/// A call-free program with `locals` locals and `scratch` scratch slots
/// that touches both ends of each, loads and stores across line
/// boundaries, loads the last two packet bytes, and drops the packet when
/// its byte 2 is zero. Needs packets of at least 66 bytes.
inline ir::Program edges(const std::string& name, std::int32_t locals,
                         std::size_t scratch) {
  ir::IrBuilder b(name);
  for (std::int32_t i = 0; i < locals; ++i) b.local();
  b.set_scratch_slots(scratch);
  const ir::Reg head = b.load_pkt_at(0, 1);
  b.store_local(0, head);
  b.store_local(locals - 1, head);
  const ir::Reg last_local = b.load_local(locals - 1);
  // Scratch slot 2 * byte1 + 1 (slot 511 for byte 255 when scratch = 512).
  const ir::Reg slot = b.add_imm(b.shl_imm(b.load_pkt_at(1, 1), 1), 1);
  b.store_mem(slot, last_local);
  b.store_mem(b.imm(0), b.load_mem(slot));
  // Line-straddling accesses: bytes 62..65 and 63..64 (lines 0 and 1).
  const ir::Reg wide = b.load_pkt_at(62, 4);
  b.store_pkt_at(63, b.load_pkt_at(63, 2), 2);
  // The last two packet bytes.
  const ir::Reg tail = b.load_pkt(b.sub(b.pkt_len(), b.imm(2)), 2);
  b.store_local(0, b.add(wide, tail));
  const ir::Label drop = b.make_label();
  b.br_false(b.load_pkt_at(2, 1), drop);
  b.forward_imm(1);
  b.bind(drop);
  b.drop();
  return b.finish();
}

/// The programs native_fixtures_gen.cpp compiles. The first two sit at the
/// first-touch edge (512 locals, 512 scratch slots: 4 KiB each); the
/// others are one word over it and get no first-touch function.
inline std::vector<ir::Program> native_fixtures() {
  return {edges("edges", 512, 512), edges("edges_small", 3, 4),
          edges("edges_locals_over", 513, 4),
          edges("edges_scratch_over", 3, 513)};
}

}  // namespace fixtures
}  // namespace bolt
