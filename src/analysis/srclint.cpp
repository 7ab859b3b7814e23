#include "analysis/srclint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "support/check.h"
#include "support/json.h"
#include "support/parallel.h"

namespace hmd::analysis {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Source stripping: split a translation unit's text into a code view (string
// and character literals and all comments blanked to spaces) and a comment
// view (everything else blanked). Rules match only the code view, so a
// banned token inside a string or comment is inert; suppressions parse only
// the comment view, so a string literal mentioning the marker is too.

struct StrippedSource {
  std::vector<std::string> code;
  std::vector<std::string> comment;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

StrippedSource strip_source(std::string_view text) {
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  StrippedSource out;
  std::string code_line, comment_line;
  State state = State::kCode;
  std::string raw_end;  // ")delim\"" terminator of the active raw string
  char prev_code = '\0';
  bool line_comment_continues = false;  // backslash-newline inside //

  auto flush_line = [&] {
    out.code.push_back(std::move(code_line));
    out.comment.push_back(std::move(comment_line));
    code_line.clear();
    comment_line.clear();
  };
  auto put_code = [&](char c) {
    code_line.push_back(c);
    comment_line.push_back(' ');
    prev_code = c;
  };
  auto put_comment = [&](char c) {
    code_line.push_back(' ');
    comment_line.push_back(c);
  };
  auto put_blank = [&] {
    code_line.push_back(' ');
    comment_line.push_back(' ');
  };

  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';
    if (c == '\n') {
      // A backslash-continued line comment spills onto the next line;
      // every other state passes the newline through unchanged.
      flush_line();
      if (state == State::kLineComment && !line_comment_continues)
        state = State::kCode;
      line_comment_continues = false;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          put_comment(c);
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          put_comment(c);
          put_comment(next);
          ++i;
        } else if (c == 'R' && next == '"' && !ident_char(prev_code)) {
          // Raw string literal: R"delim( ... )delim". Collect the delimiter.
          std::size_t j = i + 2;
          std::string delim;
          while (j < n && text[j] != '(' && text[j] != '\n' &&
                 delim.size() < 16)
            delim.push_back(text[j++]);
          if (j < n && text[j] == '(') {
            raw_end = ")" + delim + "\"";
            state = State::kRawString;
            for (std::size_t k = i; k <= j; ++k) put_blank();
            i = j;
            prev_code = '\0';
          } else {
            put_code(c);  // not actually a raw string; keep the R
          }
        } else if (c == '"') {
          state = State::kString;
          put_blank();
          prev_code = '\0';
        } else if (c == '\'' && ident_char(prev_code) && ident_char(next)) {
          put_code(c);  // digit separator, e.g. 1'000'000
        } else if (c == '\'') {
          state = State::kChar;
          put_blank();
          prev_code = '\0';
        } else {
          put_code(c);
        }
        break;
      case State::kLineComment:
        if (c == '\\' && next == '\n') line_comment_continues = true;
        put_comment(c);
        break;
      case State::kBlockComment:
        put_comment(c);
        if (c == '*' && next == '/') {
          put_comment(next);
          ++i;
          state = State::kCode;
        }
        break;
      case State::kString:
      case State::kChar: {
        put_blank();
        if (c == '\\' && next != '\0' && next != '\n') {
          put_blank();
          ++i;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
        }
        break;
      }
      case State::kRawString:
        put_blank();
        if (c == raw_end.front() &&
            text.compare(i, raw_end.size(), raw_end) == 0) {
          for (std::size_t k = 1; k < raw_end.size(); ++k) put_blank();
          i += raw_end.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  flush_line();
  return out;
}

// ---------------------------------------------------------------------------
// Rules.

struct RuleDef {
  SrclintRule info;
  std::regex pattern;              // matched against the code view per line
  std::vector<std::string> allow;  // rel paths exempt from this rule
  bool src_only = false;           // library-code rule (src/ only)
  bool needs_scope = false;        // uses the function-scope walk instead
};

const std::vector<RuleDef>& rule_defs() {
  static const std::vector<RuleDef> defs = [] {
    std::vector<RuleDef> r;
    r.push_back(RuleDef{
        {"rng-construct",
         "std::random_device / rand() / srand() / standard <random> engines",
         "all randomness must flow from support/rng.h's explicitly seeded "
         "Rng, or results stop reproducing across runs and platforms"},
        std::regex(
            R"(std::random_device|std::mt19937|std::minstd_rand|std::default_random_engine|std::ranlux|std::knuth_b|\b(rand|srand|rand_r|srandom|drand48|lrand48|mrand48)\s*\()"),
        {"src/support/rng.h"},
        false,
        false});
    r.push_back(RuleDef{
        {"wall-clock",
         "std::chrono::system_clock, time(), clock(), gettimeofday, "
         "localtime/gmtime",
         "output must not depend on when it was computed; steady_clock is "
         "monotonic and stays legal for timing work"},
        std::regex(
            R"(system_clock|\btime\s*\(|\bclock\s*\(|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|\bgmtime\b|\bstrftime\b)"),
        {"bench/bench_util.h"},
        false,
        false});
    r.push_back(RuleDef{
        {"unordered-container",
         "std::unordered_map/set/multimap/multiset",
         "hash-order iteration feeding any output is silent "
         "nondeterminism; the tree has zero and this locks that in"},
        std::regex(R"(std::unordered_(map|set|multimap|multiset)\b)"),
        {},
        false,
        false});
    r.push_back(RuleDef{
        {"pointer-key",
         "std::map/std::set (and multi variants) keyed on a pointer type",
         "address order varies run to run, so iterating a pointer-keyed "
         "ordered container is as nondeterministic as a hashed one"},
        std::regex(R"(std::(multi)?(map|set)\s*<\s*[^,<>]*\*)"),
        {},
        false,
        false});
    r.push_back(RuleDef{
        {"local-static",
         "mutable function-local `static` in library code",
         "hidden cross-call state breaks the parallel contract that work "
         "unit i depends only on i and immutable shared state"},
        std::regex(
            R"(^static\s+(?!(const|constexpr|inline\s+const|inline\s+constexpr)\b))"),
        {},
        true,
        true});
    r.push_back(RuleDef{
        {"env-read",
         "getenv / secure_getenv outside the two sanctioned knobs",
         "an environment variable is a hidden, unlogged input; only "
         "HMD_THREADS and HMD_INFER_BACKEND exist, and neither changes "
         "results"},
        std::regex(R"(\b(secure_)?getenv\s*\()"),
        {"src/support/parallel.cpp", "src/ml/infer.cpp"},
        false,
        false});
    return r;
  }();
  return defs;
}

// ---------------------------------------------------------------------------
// Suppressions: the allow marker (rule id + reason), comments only.

struct Suppression {
  std::string rule;
  std::string reason;
};

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0)
    --e;
  return std::string(s.substr(b, e - b));
}

bool known_rule(const std::string& id) {
  for (const RuleDef& def : rule_defs())
    if (def.info.id == id) return true;
  return false;
}

bool blank_line(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

/// Parse per-line suppressions out of the comment view. Index = 0-based
/// line; a suppression on a comment-only line covers the following line.
std::vector<const Suppression*> parse_suppressions(
    std::string_view rel_path, const StrippedSource& stripped,
    std::vector<Suppression>& storage, std::vector<std::string>& errors) {
  static const std::regex form(
      R"(HMD_SRCLINT_ALLOW\(\s*([A-Za-z][A-Za-z0-9_-]*)\s*\)\s*:\s*(.*))");
  const std::size_t n = stripped.comment.size();
  // Two passes: collect into stable storage first, then build the per-line
  // pointer table (pointers into a still-growing vector would dangle).
  std::vector<std::pair<std::size_t, std::size_t>> found;  // line -> index
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& comment = stripped.comment[i];
    if (comment.find("HMD_SRCLINT_ALLOW") == std::string::npos) continue;
    std::smatch m;
    if (!std::regex_search(comment, m, form)) {
      errors.push_back(std::string(rel_path) + ":" + std::to_string(i + 1) +
                       ": malformed HMD_SRCLINT_ALLOW (expected "
                       "HMD_SRCLINT_ALLOW(rule-id): reason)");
      continue;
    }
    const std::string rule = m[1].str();
    const std::string reason = trim(m[2].str());
    if (!known_rule(rule)) {
      errors.push_back(std::string(rel_path) + ":" + std::to_string(i + 1) +
                       ": HMD_SRCLINT_ALLOW names unknown rule '" + rule +
                       "'");
      continue;
    }
    if (reason.empty()) {
      errors.push_back(std::string(rel_path) + ":" + std::to_string(i + 1) +
                       ": HMD_SRCLINT_ALLOW(" + rule +
                       ") is missing a reason");
      continue;
    }
    storage.push_back(Suppression{rule, reason});
    found.emplace_back(i, storage.size() - 1);
  }
  std::vector<const Suppression*> by_line(n, nullptr);
  for (const auto& [line, idx] : found) {
    by_line[line] = &storage[idx];
    // A comment-only line's suppression covers the next line.
    if (blank_line(stripped.code[line]) && line + 1 < n &&
        by_line[line + 1] == nullptr)
      by_line[line + 1] = &storage[idx];
  }
  return by_line;
}

// ---------------------------------------------------------------------------
// Function-scope tracking for the local-static rule. Walks the code view
// keeping a stack of brace scopes classified as function-like or not: a
// brace whose header ends with ')' or ']' (function bodies, lambdas,
// control statements) opens a function-like scope unless the header names a
// type or namespace. Heuristic by design — the tree's style keeps it exact,
// and an inline allow marker covers any future corner case.

std::vector<bool> function_scope_lines(const StrippedSource& stripped) {
  std::vector<bool> in_function(stripped.code.size(), false);
  static const std::regex type_scope(
      R"((^|[^\w])(namespace|class|struct|union|enum)([^\w]|$))");
  std::vector<bool> stack;  // true = function-like scope
  std::string head;
  bool depth_any_function = false;

  auto recompute = [&] {
    depth_any_function =
        std::any_of(stack.begin(), stack.end(), [](bool f) { return f; });
  };
  for (std::size_t i = 0; i < stripped.code.size(); ++i) {
    const std::string& line = stripped.code[i];
    // The line counts as function scope if any enclosing brace at any point
    // of the line is function-like; track the max over the line.
    bool line_function = depth_any_function;
    for (char c : line) {
      if (c == '{') {
        const std::string h = trim(head);
        bool function_like = false;
        if (!std::regex_search(h, type_scope)) {
          const char tail = h.empty() ? '\0' : h.back();
          function_like =
              depth_any_function || tail == ')' || tail == ']' ||
              h == "do" || h == "else" || h == "try";
        }
        stack.push_back(function_like);
        recompute();
        head.clear();
      } else if (c == '}') {
        if (!stack.empty()) stack.pop_back();
        recompute();
        head.clear();
      } else if (c == ';') {
        head.clear();
      } else {
        if (head.size() < 256) head.push_back(c);
      }
      line_function = line_function || depth_any_function;
    }
    if (!head.empty()) head.push_back(' ');  // keep multi-line headers apart
    in_function[i] = line_function;
  }
  return in_function;
}

/// Does this code line declare a mutable static at function scope? The
/// pattern anchors at the `static` keyword so `static const`/`constexpr`
/// (immutable, deterministic) stay legal.
bool mutable_static_on_line(const std::string& code_line,
                            const std::regex& pattern) {
  std::size_t pos = 0;
  while ((pos = code_line.find("static", pos)) != std::string::npos) {
    const bool boundary_before =
        pos == 0 || !ident_char(code_line[pos - 1]);
    if (boundary_before) {
      const std::string tail = code_line.substr(pos);
      if (std::regex_search(tail, pattern,
                            std::regex_constants::match_continuous))
        return true;
    }
    pos += 6;
  }
  return false;
}

bool path_in(const std::vector<std::string>& list, std::string_view path) {
  return std::find(list.begin(), list.end(), path) != list.end();
}

std::string snippet_of(std::string_view text_line) {
  std::string s = trim(text_line);
  if (s.size() > 160) s = s.substr(0, 157) + "...";
  return s;
}

}  // namespace

const std::vector<SrclintRule>& srclint_rules() {
  static const std::vector<SrclintRule> rules = [] {
    std::vector<SrclintRule> r;
    for (const RuleDef& def : rule_defs()) r.push_back(def.info);
    return r;
  }();
  return rules;
}

SrclintFileResult srclint_scan_source(std::string_view rel_path,
                                      std::string_view text) {
  SrclintFileResult result;
  const StrippedSource stripped = strip_source(text);

  std::vector<Suppression> suppression_storage;
  const std::vector<const Suppression*> suppressed_on = parse_suppressions(
      rel_path, stripped, suppression_storage, result.errors);

  // Raw lines, for snippets.
  std::vector<std::string_view> raw_lines;
  raw_lines.reserve(stripped.code.size());
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
      if (i == text.size() || text[i] == '\n') {
        raw_lines.push_back(text.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  std::vector<bool> in_function;  // built lazily for the local-static rule

  for (const RuleDef& def : rule_defs()) {
    if (path_in(def.allow, rel_path)) continue;
    if (def.src_only && rel_path.substr(0, 4) != "src/") continue;
    if (def.needs_scope && in_function.empty())
      in_function = function_scope_lines(stripped);
    for (std::size_t i = 0; i < stripped.code.size(); ++i) {
      const std::string& code = stripped.code[i];
      bool hit;
      if (def.needs_scope) {
        hit = in_function[i] && mutable_static_on_line(code, def.pattern);
      } else {
        hit = std::regex_search(code, def.pattern);
      }
      if (!hit) continue;
      SrclintViolation v;
      v.file = std::string(rel_path);
      v.line = i + 1;
      v.rule = def.info.id;
      v.snippet = i < raw_lines.size() ? snippet_of(raw_lines[i]) : "";
      const Suppression* sup =
          i < suppressed_on.size() ? suppressed_on[i] : nullptr;
      if (sup != nullptr && sup->rule == def.info.id) {
        v.suppressed = true;
        v.reason = sup->reason;
      }
      result.violations.push_back(std::move(v));
    }
  }
  // Line-major order regardless of which rule found what.
  std::stable_sort(result.violations.begin(), result.violations.end(),
                   [](const SrclintViolation& a, const SrclintViolation& b) {
                     return a.line < b.line;
                   });
  return result;
}

std::size_t SrclintReport::unsuppressed() const {
  std::size_t n = 0;
  for (const SrclintViolation& v : violations)
    if (!v.suppressed) ++n;
  return n;
}

SrclintReport srclint_scan_tree(const std::string& root,
                                std::size_t threads) {
  static constexpr const char* kDirs[] = {"src", "bench", "tools", "tests",
                                          "examples"};
  static constexpr const char* kExts[] = {".h", ".hpp", ".cc", ".cpp"};

  SrclintReport report;
  const fs::path root_path(root);
  HMD_REQUIRE_MSG(fs::is_directory(root_path),
                  "srclint root is not a directory: " + root);
  for (const char* dir : kDirs) {
    const fs::path top = root_path / dir;
    if (!fs::is_directory(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (std::find_if(std::begin(kExts), std::end(kExts),
                       [&](const char* e) { return ext == e; }) ==
          std::end(kExts))
        continue;
      report.files.push_back(
          fs::relative(entry.path(), root_path).generic_string());
    }
  }
  // Directory iteration order is unspecified; sorting keeps the report (and
  // the parallel_map work assignment) identical across runs and platforms.
  std::sort(report.files.begin(), report.files.end());

  support::ThreadPool pool(threads);
  const std::vector<SrclintFileResult> per_file =
      pool.parallel_map(report.files.size(), [&](std::size_t i) {
        std::ifstream in(root_path / report.files[i],
                         std::ios::in | std::ios::binary);
        HMD_REQUIRE_MSG(in.good(), "cannot read " + report.files[i]);
        std::ostringstream text;
        text << in.rdbuf();
        return srclint_scan_source(report.files[i], text.str());
      });
  for (const SrclintFileResult& fr : per_file) {
    report.violations.insert(report.violations.end(), fr.violations.begin(),
                             fr.violations.end());
    report.errors.insert(report.errors.end(), fr.errors.begin(),
                         fr.errors.end());
  }
  return report;
}

std::string srclint_report_json(const SrclintReport& report) {
  support::JsonWriter w;
  w.str("tool", "hmd_srclint")
      .num("files_scanned", report.files.size())
      .array("rules");
  for (const SrclintRule& rule : srclint_rules()) {
    std::size_t active = 0, suppressed = 0;
    for (const SrclintViolation& v : report.violations) {
      if (v.rule != rule.id) continue;
      (v.suppressed ? suppressed : active)++;
    }
    w.inline_object()
        .str("id", rule.id)
        .str("bans", rule.bans)
        .num("violations", active)
        .num("suppressed", suppressed)
        .end();
  }
  w.end().array("violations");
  for (const SrclintViolation& v : report.violations)
    w.inline_object()
        .str("file", v.file)
        .num("line", v.line)
        .str("rule", v.rule)
        .boolean("suppressed", v.suppressed)
        .str("reason", v.reason)
        .str("snippet", v.snippet)
        .end();
  w.end().array("errors");
  for (const std::string& e : report.errors) w.str({}, e);
  w.end().num("unsuppressed_total", report.unsuppressed());
  return w.text();
}

}  // namespace hmd::analysis
