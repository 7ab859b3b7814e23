// The one JSON writer behind every machine-readable report: the bench
// reports (BENCH_*.json) and hmd_srclint's LINT_src.json.
//
// The caller names keys and values; the writer escapes strings, places
// commas and indents. A container is either a block (one member per line)
// or one-line (`inline_object`, and everything nested in one), which keeps
// per-cell records of long tables on a single line.
//
//   support::JsonWriter w;                 // the top-level object is open
//   w.str("bench", "serve").num("schema", 1);
//   w.object("deterministic").num("hosts", 2000).end();
//   w.save("BENCH_serve.json", "serve");   // a failed write exits 1
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hmd::support {

class JsonWriter {
 public:
  JsonWriter();

  /// Open a container. Inside an object `key` names the member; inside an
  /// array it must be empty. inline_object keeps the object, and all it
  /// holds, on one line.
  JsonWriter& object(std::string_view key = {}) {
    return open(key, '{', '}', false);
  }
  JsonWriter& array(std::string_view key = {}) {
    return open(key, '[', ']', false);
  }
  JsonWriter& inline_object(std::string_view key = {}) {
    return open(key, '{', '}', true);
  }
  /// Close the innermost open container.
  JsonWriter& end();

  JsonWriter& str(std::string_view key, std::string_view value);
  JsonWriter& boolean(std::string_view key, bool value);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& num(std::string_view key, T value) {
    return raw(key, std::to_string(value));
  }
  /// Fixed-point with `decimals` digits (printf "%.*f"); a non-finite value
  /// is written as null, since JSON has no NaN or infinity.
  JsonWriter& num(std::string_view key, double value, int decimals);
  /// A 64-bit hash as a 16-digit hex string.
  JsonWriter& hex(std::string_view key, std::uint64_t value);

  /// The finished document. Every container but the top-level object must
  /// have been closed.
  std::string text() const;
  /// Write text() to `path`; on any failed open, write or close, report it
  /// on stderr prefixed by `[what]` and exit 1.
  void save(const std::string& path, std::string_view what) const;

 private:
  struct Frame {
    char close;
    bool one_line;
    bool empty;
  };
  JsonWriter& open(std::string_view key, char open, char close,
                   bool one_line);
  JsonWriter& raw(std::string_view key, std::string_view literal);
  void member(std::string_view key);
  /// Append `frame`'s closer; `depth` is its parent's nesting depth.
  static void close_frame(std::string& out, const Frame& frame,
                          std::size_t depth);

  std::string out_;
  std::vector<Frame> stack_;
};

/// Write `text` to `path`. false (with errno set) if the open, the write or
/// the close failed — a full disk often shows only at the close.
bool write_file(const std::string& path, std::string_view text);

}  // namespace hmd::support
