// Golden contract artifacts — the operator's stored interchange format,
// pinned byte-for-byte.
//
// tests/data/contract_<nf>.json are committed artifacts generated by
// `bolt_cli contract <nf> --out` for the four reference NFs. This suite
// locks three things down:
//
//  * Schema stability: a golden artifact parsed and re-serialised through
//    perf/contract_io must reproduce the committed bytes exactly. Any
//    change to the JSON layout — field order, spacing, new fields — fails
//    here until kContractSchemaVersion is bumped and the goldens are
//    deliberately regenerated (this also gates the monitor report-schema
//    bump workflow).
//  * Generation stability: regenerating each contract from the live
//    pipeline must reproduce the golden artifact. A cost-model or
//    propagator change that silently alters shipped bounds is caught
//    here; refresh the goldens on purpose, with review, via
//    tools/regen_goldens.sh.
//  * Versioning: an artifact with a different schema version must be
//    rejected loudly, never half-parsed.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "perf/contract_io.h"

namespace bolt::perf {
namespace {

const std::vector<const char*> kReferenceNfs = {
    "bridge", "nat", "lb", "lpm", "router", "fw+router", "firewall", "nat-b",
    "lpm-simple"};

std::string golden_path(const std::string& nf) {
  return std::string(BOLT_TEST_DATA_DIR) + "/contract_" + nf + ".json";
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing golden artifact " << path
                        << " (regenerate with tools/regen_goldens.sh)";
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ContractGolden, RoundTripsByteExact) {
  for (const std::string nf : kReferenceNfs) {
    SCOPED_TRACE(nf);
    const std::string golden = read_file(golden_path(nf));
    ASSERT_FALSE(golden.empty());

    PcvRegistry reg;
    const Contract contract = contract_from_json(golden, reg);
    EXPECT_FALSE(contract.entries().empty());
    EXPECT_FALSE(contract.nf_name().empty());

    // Serialise back: byte-exact against the committed artifact (modulo
    // the trailing newline save_contract appends).
    EXPECT_EQ(contract_to_json(contract, reg) + "\n", golden)
        << "contract JSON schema drifted without a version bump — bump "
           "perf::kContractSchemaVersion and regenerate tests/data/";
  }
}

TEST(ContractGolden, SecondRoundTripIsAFixedPoint) {
  // parse -> print -> parse -> print must stabilise immediately (no
  // registry-order or term-order churn on reload).
  for (const std::string nf : kReferenceNfs) {
    SCOPED_TRACE(nf);
    const std::string golden = read_file(golden_path(nf));
    PcvRegistry reg1;
    const std::string once =
        contract_to_json(contract_from_json(golden, reg1), reg1);
    PcvRegistry reg2;
    const std::string twice =
        contract_to_json(contract_from_json(once, reg2), reg2);
    EXPECT_EQ(once, twice);
  }
}

TEST(ContractGolden, RegeneratedContractsMatchGoldenArtifacts) {
  // The live pipeline must still produce exactly the shipped artifacts.
  for (const std::string nf : kReferenceNfs) {
    SCOPED_TRACE(nf);
    const std::string golden = read_file(golden_path(nf));
    PcvRegistry reg;
    core::NfTarget target;
    ASSERT_TRUE(core::make_named_target(nf, reg, target));
    core::ContractGenerator generator(reg);
    const auto result = generator.generate(target.analysis());
    EXPECT_EQ(contract_to_json(result.contract, reg) + "\n", golden)
        << nf << ": generated contract diverged from the golden artifact — "
        << "if the change is intentional, regenerate tests/data/ "
           "(tools/regen_goldens.sh) and say why in the commit";
  }
}

TEST(ContractGoldenDeathTest, UnversionedSchemaDriftIsRejected) {
  const std::string golden = read_file(golden_path("nat"));
  ASSERT_FALSE(golden.empty());
  // Bump the version field only: the parser must refuse, not guess.
  const std::string drifted =
      "{\"version\":9" + golden.substr(golden.find(','));
  PcvRegistry reg;
  EXPECT_DEATH(contract_from_json(drifted, reg), "unsupported version");
}

TEST(ContractGoldenDeathTest, MissingArtifactIsLoud) {
  PcvRegistry reg;
  EXPECT_DEATH(load_contract(std::string(BOLT_TEST_DATA_DIR) + "/nope.json",
                             reg),
               "cannot open contract artifact");
}

// --- malformed-artifact hardening: precise rejection, never a half-parse --

namespace {

/// Minimal syntactically valid artifact with the two given entry bodies.
std::string two_entry_artifact(const std::string& entry_a,
                               const std::string& entry_b) {
  return "{\"version\":1,\"nf\":\"x\",\"pcvs\":[],\"entries\":[" + entry_a +
         "," + entry_b + "]}";
}

const char* kEntryA =
    "{\"input_class\":\"a\",\"paths_coalesced\":1,\"metrics\":{"
    "\"instructions\":[{\"coeff\":1,\"pcvs\":[]}],"
    "\"mem_accesses\":[],\"cycles\":[]}}";

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

}  // namespace

TEST(ContractGoldenDeathTest, TruncatedArtifactIsRejected) {
  const std::string golden = read_file(golden_path("nat"));
  ASSERT_FALSE(golden.empty());
  // Cut mid-entries: the parser must say the input ended, not mis-parse.
  const std::string truncated = golden.substr(0, golden.size() * 2 / 3);
  PcvRegistry reg;
  EXPECT_DEATH(contract_from_json(truncated, reg), "unexpected end of input");
}

TEST(ContractGoldenDeathTest, TrailingGarbageIsRejected) {
  const std::string golden = read_file(golden_path("nat"));
  PcvRegistry reg;
  EXPECT_DEATH(contract_from_json(golden + "{\"version\":1}", reg),
               "trailing garbage");
}

TEST(ContractGoldenDeathTest, DuplicateInputClassIsRejected) {
  const std::string dup = two_entry_artifact(kEntryA, kEntryA);
  PcvRegistry reg;
  EXPECT_DEATH(contract_from_json(dup, reg), "duplicate input class 'a'");
}

TEST(ContractGoldenDeathTest, NonIntegerBoundConstantIsRejected) {
  std::string entry_b = kEntryA;
  // "a" -> "b", coefficient 1 -> 1.5: bound constants must stay integral.
  entry_b.replace(entry_b.find("\"a\""), 3, "\"b\"");
  entry_b.replace(entry_b.find("\"coeff\":1"), 9, "\"coeff\":1.5");
  PcvRegistry reg;
  EXPECT_DEATH(contract_from_json(two_entry_artifact(kEntryA, entry_b), reg),
               "finite integers");
}

TEST(ContractGoldenDeathTest, OverflowingBoundConstantIsRejected) {
  std::string entry_b = kEntryA;
  entry_b.replace(entry_b.find("\"a\""), 3, "\"b\"");
  entry_b.replace(entry_b.find("\"coeff\":1"), 9,
                  "\"coeff\":99999999999999999999");
  PcvRegistry reg;
  EXPECT_DEATH(contract_from_json(two_entry_artifact(kEntryA, entry_b), reg),
               "overflows 64 bits");
}

TEST(ContractGoldenDeathTest, EmptyArtifactFileIsLoud) {
  const std::string path = write_temp("empty_contract.json", "");
  PcvRegistry reg;
  EXPECT_DEATH(load_contract(path, reg), "empty contract artifact");
}

}  // namespace
}  // namespace bolt::perf
