// Tests for the determinism source lint (analysis/srclint.h).
//
// Fixture sources live in raw strings and are fed either straight into
// srclint_scan_source (per-rule behaviour) or written into a scratch tree
// for srclint_scan_tree (discovery, ordering, JSON, threading). The banned
// tokens below sit inside string literals of *this* file, so the lint's own
// scan of tests/ does not trip over its test suite — itself a regression
// test of the string-stripping scanner.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/srclint.h"

namespace fs = std::filesystem;
using hmd::analysis::SrclintFileResult;
using hmd::analysis::SrclintReport;
using hmd::analysis::srclint_report_json;
using hmd::analysis::srclint_rules;
using hmd::analysis::srclint_scan_source;
using hmd::analysis::srclint_scan_tree;
using hmd::analysis::SrclintViolation;

namespace {

/// Unsuppressed rule ids found by a scan, in report order.
std::vector<std::string> fired(const SrclintFileResult& result) {
  std::vector<std::string> ids;
  for (const SrclintViolation& v : result.violations)
    if (!v.suppressed) ids.push_back(v.rule);
  return ids;
}

std::string scratch_tree(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "hmd_srclint_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void write_file(const std::string& root, const std::string& rel,
                const std::string& text) {
  const fs::path path = fs::path(root) / rel;
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good()) << rel;
}

}  // namespace

TEST(SrclintRules, TableIsStableAndDocumented) {
  const auto& rules = srclint_rules();
  ASSERT_EQ(rules.size(), 6u);
  EXPECT_EQ(rules[0].id, "rng-construct");
  EXPECT_EQ(rules[1].id, "wall-clock");
  EXPECT_EQ(rules[2].id, "unordered-container");
  EXPECT_EQ(rules[3].id, "pointer-key");
  EXPECT_EQ(rules[4].id, "local-static");
  EXPECT_EQ(rules[5].id, "env-read");
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.bans.empty()) << rule.id;
    EXPECT_FALSE(rule.rationale.empty()) << rule.id;
  }
}

TEST(SrclintEnvRead, FlagsEnvironmentReadsInLibraryCode) {
  const char* bad[] = {
      "const char* v = std::getenv(\"HMD_NEW_KNOB\");",
      "if (getenv(\"X\") != nullptr) {}",
      "const char* s = secure_getenv (\"Y\");",
  };
  for (const char* line : bad) {
    const auto result = srclint_scan_source("src/ml/dataset.cpp", line);
    EXPECT_EQ(fired(result), std::vector<std::string>{"env-read"}) << line;
  }
}

TEST(SrclintEnvRead, SanctionedKnobsStayLegal) {
  const char* line = "const char* env = std::getenv(\"HMD_THREADS\");";
  EXPECT_TRUE(fired(srclint_scan_source("src/support/parallel.cpp", line))
                  .empty());
  EXPECT_TRUE(
      fired(srclint_scan_source("src/ml/infer.cpp", line)).empty());
}

TEST(SrclintEnvRead, CommentsStringsAndLookalikesAreInert) {
  const char* text =
      "// std::getenv(\"HMD_NEW_KNOB\") is gone\n"
      "/* getenv(\"X\") */\n"
      "const char* doc = \"call getenv(name) to read it\";\n"
      "int my_getenv(int x);\n"
      "std::string getenv_name;\n";
  EXPECT_TRUE(fired(srclint_scan_source("src/ml/dataset.cpp", text)).empty());
}

TEST(SrclintRng, FlagsEveryBannedConstructor) {
  const char* bad[] = {
      "std::random_device rd;",
      "std::mt19937 gen(7);",
      "std::default_random_engine e;",
      "int x = rand();",
      "srand(42);",
      "double d = drand48();",
  };
  for (const char* line : bad) {
    const auto result = srclint_scan_source("src/x.cpp", line);
    EXPECT_EQ(fired(result),
              std::vector<std::string>{"rng-construct"})
        << line;
  }
}

TEST(SrclintRng, AllowsTheRngHeaderAndUnrelatedIdentifiers) {
  // The one sanctioned home of RNG machinery.
  EXPECT_TRUE(
      srclint_scan_source("src/support/rng.h", "std::random_device rd;")
          .violations.empty());
  // Identifiers merely containing 'rand' must not match.
  const auto result = srclint_scan_source(
      "src/x.cpp", "int operand(int strand) { return strand; }");
  EXPECT_TRUE(result.violations.empty());
}

TEST(SrclintWallClock, FlagsWallClockReads) {
  const char* bad[] = {
      "auto t = std::chrono::system_clock::now();",
      "long t = time(nullptr);",
      "clock_t c = clock();",
      "gettimeofday(&tv, nullptr);",
  };
  for (const char* line : bad) {
    const auto result = srclint_scan_source("src/x.cpp", line);
    EXPECT_EQ(fired(result), std::vector<std::string>{"wall-clock"}) << line;
  }
}

TEST(SrclintWallClock, SteadyClockAndTimeLikeNamesStayLegal) {
  EXPECT_TRUE(srclint_scan_source(
                  "src/x.cpp",
                  "auto t0 = std::chrono::steady_clock::now();\n"
                  "auto dt = t0.time_since_epoch();\n"
                  "double run_time(int x);\n")
                  .violations.empty());
}

TEST(SrclintWallClock, BenchTimingAllowlistPasses) {
  const auto result = srclint_scan_source(
      "bench/bench_util.h", "auto t = std::chrono::system_clock::now();");
  EXPECT_TRUE(result.violations.empty());
  // The same line in a non-allowlisted bench file still fails.
  EXPECT_EQ(fired(srclint_scan_source(
                "bench/other.cpp",
                "auto t = std::chrono::system_clock::now();")),
            std::vector<std::string>{"wall-clock"});
}

TEST(SrclintContainers, FlagsUnorderedAndPointerKeyed) {
  EXPECT_EQ(fired(srclint_scan_source("tests/t.cpp",
                                      "std::unordered_map<int, int> m;")),
            std::vector<std::string>{"unordered-container"});
  EXPECT_EQ(fired(srclint_scan_source("tools/t.cpp",
                                      "std::unordered_set<long> s;")),
            std::vector<std::string>{"unordered-container"});
  EXPECT_EQ(fired(srclint_scan_source("src/x.cpp",
                                      "std::map<const void*, int> m;")),
            std::vector<std::string>{"pointer-key"});
  EXPECT_EQ(fired(srclint_scan_source("src/x.cpp",
                                      "std::set<Node*> nodes;")),
            std::vector<std::string>{"pointer-key"});
  // Pointer *values* are fine; only pointer keys are ordered by address.
  EXPECT_TRUE(srclint_scan_source("src/x.cpp",
                                  "std::map<std::string, Node*> byname;")
                  .violations.empty());
}

TEST(SrclintLocalStatic, FlagsMutableFunctionLocalsInLibraryCodeOnly) {
  const std::string body =
      "int f() {\n"
      "  static int calls = 0;\n"
      "  return ++calls;\n"
      "}\n";
  EXPECT_EQ(fired(srclint_scan_source("src/x.cpp", body)),
            std::vector<std::string>{"local-static"});
  // Library-code rule: harness/test code may keep counters.
  EXPECT_TRUE(srclint_scan_source("bench/x.cpp", body).violations.empty());
  EXPECT_TRUE(srclint_scan_source("tests/x.cpp", body).violations.empty());
}

TEST(SrclintLocalStatic, ImmutableAndNonLocalStaticsStayLegal) {
  EXPECT_TRUE(
      srclint_scan_source("src/x.cpp",
                          "int f() {\n"
                          "  static const int limit = 5;\n"
                          "  static constexpr double pi = 3.14;\n"
                          "  return limit;\n"
                          "}\n")
          .violations.empty());
  // Class members and namespace-scope declarations are out of scope.
  EXPECT_TRUE(
      srclint_scan_source("src/x.cpp",
                          "struct S {\n"
                          "  static int shared;\n"
                          "  static std::string name();\n"
                          "};\n"
                          "static int g_mode = 0;\n")
          .violations.empty());
  // A method body *inside* a class is still function scope.
  EXPECT_EQ(fired(srclint_scan_source("src/x.cpp",
                                      "struct S {\n"
                                      "  int f() {\n"
                                      "    static int hits = 0;\n"
                                      "    return ++hits;\n"
                                      "  }\n"
                                      "};\n")),
            std::vector<std::string>{"local-static"});
}

TEST(SrclintStripping, StringsAndCommentsAreInert) {
  EXPECT_TRUE(
      srclint_scan_source(
          "src/x.cpp",
          "const char* a = \"std::unordered_map<int,int>\";\n"
          "const char* b = \"rand() time( system_clock\";\n"
          "// std::random_device belongs in rng.h only\n"
          "/* std::unordered_set<int> would be nondeterministic */\n")
          .violations.empty());
  // Raw strings too — this is how the lint survives scanning its own tests.
  const std::string raw_fixture =
      "const char* r = R\"(std::mt19937 gen; time(nullptr))\";\n";
  EXPECT_TRUE(srclint_scan_source("src/x.cpp", raw_fixture)
                  .violations.empty());
  // ...but the same tokens as code still fail.
  EXPECT_FALSE(srclint_scan_source("src/x.cpp", "std::mt19937 gen;")
                   .violations.empty());
}

TEST(SrclintSuppression, SameLineAndPrecedingCommentLineAreHonored) {
  const std::string same_line =
      "long t = time(nullptr);  // HMD_SRCLINT_ALLOW(wall-clock): boot id\n";
  auto result = srclint_scan_source("src/x.cpp", same_line);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_TRUE(result.violations[0].suppressed);
  EXPECT_EQ(result.violations[0].reason, "boot id");
  EXPECT_TRUE(result.errors.empty());

  const std::string line_above =
      "// HMD_SRCLINT_ALLOW(wall-clock): campaign stamp, output-inert\n"
      "long t = time(nullptr);\n";
  result = srclint_scan_source("src/x.cpp", line_above);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_TRUE(result.violations[0].suppressed);
}

TEST(SrclintSuppression, WrongRuleDoesNotSuppress) {
  const std::string text =
      "long t = time(nullptr);  // HMD_SRCLINT_ALLOW(pointer-key): wrong\n";
  const auto result = srclint_scan_source("src/x.cpp", text);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_FALSE(result.violations[0].suppressed);
}

TEST(SrclintSuppression, UnknownRuleAndMissingReasonAreErrors) {
  const auto unknown = srclint_scan_source(
      "src/x.cpp", "// HMD_SRCLINT_ALLOW(no-such-rule): whatever\n");
  ASSERT_EQ(unknown.errors.size(), 1u);
  EXPECT_NE(unknown.errors[0].find("unknown rule"), std::string::npos);

  const auto no_reason = srclint_scan_source(
      "src/x.cpp", "long t = time(nullptr);  // HMD_SRCLINT_ALLOW(wall-clock):\n");
  ASSERT_EQ(no_reason.errors.size(), 1u);
  EXPECT_NE(no_reason.errors[0].find("missing a reason"), std::string::npos);
  // The violation stays unsuppressed when the suppression was rejected.
  ASSERT_EQ(no_reason.violations.size(), 1u);
  EXPECT_FALSE(no_reason.violations[0].suppressed);

  // A marker inside a string literal is not a suppression at all.
  const auto in_string = srclint_scan_source(
      "src/x.cpp",
      "const char* doc = \"HMD_SRCLINT_ALLOW(no-such-rule): nope\";\n");
  EXPECT_TRUE(in_string.errors.empty());
}

TEST(SrclintTree, ScansFixtureTreeDeterministically) {
  const std::string root = scratch_tree("fixture_tree");
  write_file(root, "src/clean.cpp", "int ok() { return 1; }\n");
  write_file(root, "src/bad.cpp",
             "#include <ctime>\n"
             "long stamp() { return time(nullptr); }\n");
  write_file(root, "tests/also_bad.h", "std::unordered_map<int, int> m;\n");
  write_file(root, "bench/allowed.cpp",
             "long t() {\n"
             "  // HMD_SRCLINT_ALLOW(wall-clock): fixture timing shim\n"
             "  return time(nullptr);\n"
             "}\n");
  // Outside the scanned dirs and extensions: must be ignored.
  write_file(root, "docs/readme.md", "time(nullptr)\n");
  write_file(root, "src/notes.txt", "std::unordered_map\n");

  const SrclintReport serial = srclint_scan_tree(root, 1);
  EXPECT_EQ(serial.files.size(), 4u);
  EXPECT_TRUE(std::is_sorted(serial.files.begin(), serial.files.end()));
  EXPECT_EQ(serial.unsuppressed(), 2u);
  EXPECT_FALSE(serial.clean());

  // Same report at any worker count (parallel_map assembles in order).
  const SrclintReport parallel = srclint_scan_tree(root, 4);
  EXPECT_EQ(srclint_report_json(parallel), srclint_report_json(serial));
}

TEST(SrclintTree, CleanTreeScansCleanAndReportIsWellFormed) {
  const std::string root = scratch_tree("clean_tree");
  write_file(root, "src/a.cpp", "int f() { return 2; }\n");
  write_file(root, "tools/b.cpp", "int g() { return 3; }\n");

  const SrclintReport report = srclint_scan_tree(root, 1);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.unsuppressed(), 0u);

  const std::string json = srclint_report_json(report);
  EXPECT_NE(json.find("\"tool\": \"hmd_srclint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed_total\": 0"), std::string::npos);
  for (const auto& rule : srclint_rules())
    EXPECT_NE(json.find("\"id\": \"" + rule.id + "\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy; ci.sh leg 1d
  // json-parses the real report.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(SrclintTree, JsonEscapesSnippets) {
  const std::string root = scratch_tree("escape_tree");
  write_file(root, "src/esc.cpp",
             "long t = time(nullptr); const char* q = \"hi\";\n");
  const SrclintReport report = srclint_scan_tree(root, 1);
  ASSERT_EQ(report.violations.size(), 1u);
  const std::string json = srclint_report_json(report);
  // The snippet's quotes around hi must arrive JSON-escaped as \"hi\".
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);
}

TEST(SrclintSelfHost, TheRepositoryTreeIsClean) {
  // HMD_SRCLINT_ROOT is set by ctest to the repo source dir; when the test
  // binary runs outside ctest, fall back to skipping rather than guessing.
  // HMD_SRCLINT_ALLOW(env-read): test-only root path, set by ctest
  const char* root = std::getenv("HMD_SRCLINT_ROOT");
  if (root == nullptr) GTEST_SKIP() << "HMD_SRCLINT_ROOT not set";
  const SrclintReport report = srclint_scan_tree(root, 0);
  EXPECT_GT(report.files.size(), 100u);
  for (const SrclintViolation& v : report.violations)
    EXPECT_TRUE(v.suppressed) << v.file << ":" << v.line << " [" << v.rule
                              << "] " << v.snippet;
  for (const std::string& e : report.errors) ADD_FAILURE() << e;
}

// ---------------------------------------------------------------------------
// src/attack coverage: the adversary is the one subsystem whose *product*
// is randomness, so it is exactly where a future contributor is most
// tempted to seed from the wall clock "for a stronger attack". The
// rng-construct and wall-clock rules have no allowlist entry for
// src/attack (only src/support/rng.h and bench_util.h respectively), so
// both must fire there like anywhere else in src/.

TEST(SrclintAttackDir, WallClockSeededGeneratorFiresBothRules) {
  // The classic anti-pattern, placed in the attack subsystem: a std
  // generator seeded from the wall clock. Non-reproducible evasion results
  // would silently break the bench's byte-identity contract.
  const auto result = srclint_scan_source(
      "src/attack/fuzzer.cpp",
      "#include <chrono>\n"
      "#include <random>\n"
      "std::mt19937 gen(static_cast<unsigned>(\n"
      "    std::chrono::system_clock::now().time_since_epoch().count()));\n");
  const std::vector<std::string> ids = fired(result);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "rng-construct"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "wall-clock"), ids.end());
}

TEST(SrclintAttackDir, RandAndRandomDeviceFireInAttackSources) {
  EXPECT_EQ(fired(srclint_scan_source("src/attack/adversary.cpp",
                                      "int r = rand();\n")),
            std::vector<std::string>{"rng-construct"});
  EXPECT_EQ(fired(srclint_scan_source("src/attack/search.h",
                                      "std::random_device rd;\n")),
            std::vector<std::string>{"rng-construct"});
}

TEST(SrclintAttackDir, SeededSupportRngIsTheSanctionedIdiom) {
  // The shape src/attack actually uses: an explicit seed, forked per
  // stream. Nothing to flag.
  EXPECT_TRUE(srclint_scan_source(
                  "src/attack/adversary.cpp",
                  "Rng base(seed_);\n"
                  "Rng rng = base.fork(stream);\n"
                  "double u = rng.uniform();\n")
                  .violations.empty());
}

TEST(SrclintAttackDir, TreeScanDiscoversAttackSources) {
  const std::string root = scratch_tree("attack_tree");
  write_file(root, "src/attack/evil.cpp",
             "#include <random>\n"
             "std::default_random_engine e;\n");
  write_file(root, "src/attack/clean.cpp", "int f() { return 1; }\n");
  const SrclintReport report = srclint_scan_tree(root, 1);
  EXPECT_EQ(report.files.size(), 2u);
  EXPECT_EQ(report.unsuppressed(), 1u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "rng-construct");
  EXPECT_EQ(report.violations[0].file, "src/attack/evil.cpp");
}
