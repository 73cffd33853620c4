#include "util/json.hpp"

#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/string_utils.hpp"

namespace aadlsched::util {

const JsonValue* JsonValue::get(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& obj = std::get<Object>(data_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

/// Nonzero when one of the eight bytes of `w` ends a plain string run: a
/// '"', a '\\' or a control byte (< 0x20). Bit hacks from Anderson's "Bit
/// Twiddling Hacks" (haszero, hasless): a borrow can flag a byte only above
/// a true match, so the test is exact for "any byte in the word".
constexpr std::uint64_t run_stoppers(std::uint64_t w) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
  const auto zero_byte = [](std::uint64_t x) {
    return (x - kOnes) & ~x & kHighs;
  };
  const std::uint64_t below_space = (w - kOnes * 0x20) & ~w & kHighs;
  return below_space | zero_byte(w ^ (kOnes * '"')) |
         zero_byte(w ^ (kOnes * '\\'));
}

/// Length of the run of plain string bytes at the start of `s`: every byte
/// before the first '"', '\\' or control byte (all of `s` if none). Eight
/// bytes at a time; byte by byte only in a tail shorter than a word, or in
/// the word that stops the run on a big-endian host.
std::size_t plain_run(std::string_view s) {
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, 8);
    const std::uint64_t stops = run_stoppers(w);
    if (stops == 0) continue;
    // Little-endian: the lowest flagged byte is the first true match.
    if constexpr (std::endian::native == std::endian::little)
      return i + static_cast<std::size_t>(std::countr_zero(stops)) / 8;
    break;
  }
  for (; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c == '"' || c == '\\' || c < 0x20) break;
  }
  return i;
}

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    auto v = parse_value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void fail(const std::string& why) {
    if (error_ && error_->empty())
      *error_ = why + " at byte " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::optional<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto s = parse_string();
        if (!s) return std::nullopt;
        return JsonValue(JsonValue::Data(std::move(*s)));
      }
      case 't':
        if (literal("true")) return JsonValue(JsonValue::Data(true));
        break;
      case 'f':
        if (literal("false")) return JsonValue(JsonValue::Data(false));
        break;
      case 'n':
        if (literal("null")) return JsonValue(JsonValue::Data(nullptr));
        break;
      default: return parse_number();
    }
    fail("unexpected character");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_object(int depth) {
    ++pos_;  // '{'
    // Members go straight into the returned value: moving a finished
    // Object into a fresh variant trips g++ 12's -Wmaybe-uninitialized.
    std::optional<JsonValue> out(std::in_place);
    auto& obj = out->data().emplace<JsonValue::Object>();
    skip_ws();
    if (eat('}')) return out;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      skip_ws();
      auto val = parse_value(depth + 1);
      if (!val) return std::nullopt;
      obj.insert_or_assign(std::move(*key), std::move(*val));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return out;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> parse_array(int depth) {
    ++pos_;  // '['
    JsonValue::Array arr;
    skip_ws();
    if (eat(']')) return JsonValue(JsonValue::Data(std::move(arr)));
    while (true) {
      skip_ws();
      auto val = parse_value(depth + 1);
      if (!val) return std::nullopt;
      arr.push_back(std::move(*val));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return JsonValue(JsonValue::Data(std::move(arr)));
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (true) {
      const std::size_t run = plain_run(text_.substr(pos_));
      out.append(text_.data() + pos_, run);
      pos_ += run;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        fail("unescaped control character in string");
        return std::nullopt;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          const auto hex4 = [&](unsigned& value) {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            value = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              value <<= 4;
              if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("bad hex digit in \\u escape");
                return false;
              }
            }
            return true;
          };
          unsigned cp = 0;
          if (!hex4(cp)) return std::nullopt;
          // Surrogate pairs (RFC 8259 §7): a high surrogate must be followed
          // by "\uDC00".."\uDFFF"; together they name one supplementary code
          // point, emitted as a single 4-byte UTF-8 sequence. A lone
          // surrogate in either position names no character at all and is a
          // parse error — silently emitting it produced invalid UTF-8
          // (CESU-8-style 3-byte surrogate encodings) downstream.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("lone high surrogate in \\u escape");
              return std::nullopt;
            }
            pos_ += 2;
            unsigned lo = 0;
            if (!hex4(lo)) return std::nullopt;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail("high surrogate not followed by a low surrogate");
              return std::nullopt;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate in \\u escape");
            return std::nullopt;
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape sequence");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (eat('-')) {}
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool integral = true;
    if (eat('.')) {
      integral = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") {
      fail("expected a value");
      return std::nullopt;
    }
    if (integral) {
      if (const auto n = parse_int64(tok))
        return JsonValue(JsonValue::Data(*n));
      // Integral-looking but out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const std::string buf(tok);
    const double d = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || errno == ERANGE) {
      fail("malformed number");
      return std::nullopt;
    }
    return JsonValue(JsonValue::Data(d));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  if (error) error->clear();
  return JsonParser(text, error).run();
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void JsonWriter::comma_for_value() {
  if (stack_.empty()) return;
  char& top = stack_.back();
  if (top == 'k') {
    stack_.pop_back();  // the pending key is consumed by this value
  } else if (top == 'A') {
    out_ += ", ";
  } else if (top == 'a') {
    top = 'A';
  }
  // 'o'/'O': a bare value inside an object without key() is a caller bug;
  // the output will be malformed JSON, which the tests catch immediately.
}

JsonWriter& JsonWriter::begin_object() {
  comma_for_value();
  out_ += '{';
  stack_ += 'o';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  if (!stack_.empty()) stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_for_value();
  out_ += '[';
  stack_ += 'a';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  if (!stack_.empty()) stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!stack_.empty() && stack_.back() == 'O') out_ += ", ";
  if (!stack_.empty() && stack_.back() == 'o') stack_.back() = 'O';
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\": ";
  stack_ += 'k';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma_for_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_for_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_for_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_for_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma_for_value();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma_for_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view pre_rendered_json) {
  comma_for_value();
  out_ += pre_rendered_json;
  return *this;
}

}  // namespace aadlsched::util
