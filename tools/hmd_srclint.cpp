// hmd_srclint — determinism/concurrency source lint over the repo tree.
//
// Walks src/ bench/ tools/ tests/ examples/ under --root, scanning files
// concurrently through support::parallel_map (the same deterministic
// parallel layer the lint protects), and enforces the determinism contract
// of DESIGN.md §12 as named rules. Writes a LINT_src.json report and exits
// 1 on any unsuppressed violation or malformed suppression, so both the
// ctest and the ci.sh leg fail loudly the moment a banned construct lands.
//
//   ./build/tools/hmd_srclint --root . --out LINT_src.json
//   ./build/tools/hmd_srclint --list-rules
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "analysis/srclint.h"
#include "support/json.h"
#include "support/parallel.h"

namespace {

int usage(const char* argv0, bool error) {
  std::ostream& os = error ? std::cerr : std::cout;
  os << "usage: " << argv0 << " [options]\n"
     << "  --root DIR    repo root to scan (default: .)\n"
     << "  --out FILE    JSON report path (default: LINT_src.json)\n"
     << "  --threads N   scan workers, 0 = auto (default: 0)\n"
     << "  --list-rules  print the rule table and exit\n"
     << "  --help        this message\n";
  return error ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string out = "LINT_src.json";
  std::size_t threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return usage(argv[0], false);
    } else if (arg == "--list-rules") {
      for (const auto& rule : hmd::analysis::srclint_rules())
        std::cout << rule.id << "\n  bans:      " << rule.bans
                  << "\n  rationale: " << rule.rationale << "\n";
      return 0;
    } else if (arg == "--root") {
      const char* v = next_value();
      if (v == nullptr) return 2;
      root = v;
    } else if (arg == "--out") {
      const char* v = next_value();
      if (v == nullptr) return 2;
      out = v;
    } else if (arg == "--threads") {
      const char* v = next_value();
      if (v == nullptr) return 2;
      const auto parsed = hmd::support::parse_thread_count(v);
      if (!parsed && std::strcmp(v, "0") != 0) {
        std::cerr << "error: bad --threads value '" << v << "'\n";
        return 2;
      }
      threads = parsed.value_or(0);
    } else {
      std::cerr << "error: unknown argument '" << arg << "'\n";
      return usage(argv[0], true);
    }
  }

  hmd::analysis::SrclintReport report;
  try {
    report = hmd::analysis::srclint_scan_tree(root, threads);
  } catch (const std::exception& e) {
    std::cerr << "hmd_srclint: " << e.what() << "\n";
    return 2;
  }

  if (!hmd::support::write_file(out,
                                hmd::analysis::srclint_report_json(report))) {
    std::cerr << "hmd_srclint: cannot write report to " << out << "\n";
    return 2;
  }

  std::size_t suppressed = 0;
  for (const auto& v : report.violations)
    if (v.suppressed) ++suppressed;

  std::cout << "hmd_srclint: scanned " << report.files.size()
            << " files under " << root << " ("
            << hmd::analysis::srclint_rules().size() << " rules)\n";
  for (const auto& v : report.violations) {
    if (v.suppressed) {
      std::cout << "  allowed " << v.file << ":" << v.line << " [" << v.rule
                << "] " << v.reason << "\n";
    } else {
      std::cout << "  FAIL    " << v.file << ":" << v.line << " [" << v.rule
                << "] " << v.snippet << "\n";
    }
  }
  for (const auto& e : report.errors)
    std::cout << "  ERROR   " << e << "\n";
  std::cout << "hmd_srclint: " << report.unsuppressed() << " violations, "
            << suppressed << " suppressed, " << report.errors.size()
            << " suppression errors -> " << out << "\n";
  return report.clean() ? 0 : 1;
}
