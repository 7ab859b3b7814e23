#include "support/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/check.h"

namespace hmd::support {

namespace {

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

JsonWriter::JsonWriter() : out_("{"), stack_{{'}', false, true}} {}

void JsonWriter::member(std::string_view key) {
  Frame& frame = stack_.back();
  if (!frame.empty) out_ += frame.one_line ? ", " : ",";
  if (!frame.one_line) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  frame.empty = false;
  if (frame.close == '}') {
    HMD_REQUIRE_MSG(!key.empty(), "JSON object member without a key");
    append_quoted(out_, key);
    out_ += ": ";
  } else {
    HMD_REQUIRE_MSG(key.empty(), "JSON array element with a key");
  }
}

JsonWriter& JsonWriter::open(std::string_view key, char open, char close,
                             bool one_line) {
  member(key);
  out_ += open;
  stack_.push_back({close, one_line || stack_.back().one_line, true});
  return *this;
}

void JsonWriter::close_frame(std::string& out, const Frame& frame,
                             std::size_t depth) {
  if (!frame.one_line && !frame.empty) {
    out += '\n';
    out.append(2 * depth, ' ');
  }
  out += frame.close;
}

JsonWriter& JsonWriter::end() {
  HMD_REQUIRE_MSG(stack_.size() > 1, "JSON end() without an open container");
  const Frame frame = stack_.back();
  stack_.pop_back();
  close_frame(out_, frame, stack_.size());
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view key, std::string_view literal) {
  member(key);
  out_ += literal;
  return *this;
}

JsonWriter& JsonWriter::str(std::string_view key, std::string_view value) {
  member(key);
  append_quoted(out_, value);
  return *this;
}

JsonWriter& JsonWriter::boolean(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonWriter& JsonWriter::num(std::string_view key, double value,
                            int decimals) {
  if (!std::isfinite(value)) return raw(key, "null");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return raw(key, buf);
}

JsonWriter& JsonWriter::hex(std::string_view key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(value));
  return raw(key, buf);
}

std::string JsonWriter::text() const {
  HMD_REQUIRE_MSG(stack_.size() == 1, "JSON document has unclosed containers");
  std::string out = out_;
  close_frame(out, stack_.front(), 0);
  out += '\n';
  return out;
}

void JsonWriter::save(const std::string& path, std::string_view what) const {
  if (write_file(path, text())) return;
  std::fprintf(stderr, "[%.*s] cannot write %s: %s\n",
               static_cast<int>(what.size()), what.data(), path.c_str(),
               std::strerror(errno));
  std::exit(1);
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

}  // namespace hmd::support
