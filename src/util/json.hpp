// Minimal JSON support for the analysis service layer: a strict
// recursive-descent parser into a JsonValue tree (the daemon's request
// decoding, the client's response decoding, tests reading stats) and a
// stateful JsonWriter that gets commas, escaping and number formatting
// right once so the many hand-rolled `os << "{\"k\": ..."` renderers stop
// multiplying.
//
// Deliberately small: no streaming, no comments, no trailing commas, UTF-8
// passed through verbatim (\uXXXX escapes are decoded, surrogate pairs
// included). Numbers that look integral parse as int64; everything else as
// double. Duplicate object keys are accepted and the last value wins.
//
// Request lines carry whole models (kilobytes of text in one string), so
// the parser copies each run of plain string bytes in one append, object
// keys are looked up without building a std::string, and a caller that
// owns the document can move a string out of it (take_string) instead of
// copying it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace aadlsched::util {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// std::map keeps object keys sorted — renders canonically, diffs cleanly.
  /// std::less<> lets get() find a std::string_view key as it is.
  using Object = std::map<std::string, JsonValue, std::less<>>;
  using Data = std::variant<std::nullptr_t, bool, std::int64_t, double,
                            std::string, Array, Object>;

  JsonValue() : data_(nullptr) {}
  JsonValue(Data d) : data_(std::move(d)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? std::get<bool>(data_) : fallback;
  }
  std::int64_t as_int(std::int64_t fallback = 0) const {
    if (is_int()) return std::get<std::int64_t>(data_);
    if (is_double()) return static_cast<std::int64_t>(std::get<double>(data_));
    return fallback;
  }
  double as_double(double fallback = 0) const {
    if (is_double()) return std::get<double>(data_);
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
    return fallback;
  }
  const std::string& as_string() const {
    static const std::string empty;
    return is_string() ? std::get<std::string>(data_) : empty;
  }
  const Array& as_array() const {
    static const Array empty;
    return is_array() ? std::get<Array>(data_) : empty;
  }
  const Object& as_object() const {
    static const Object empty;
    return is_object() ? std::get<Object>(data_) : empty;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(std::string_view key) const;
  JsonValue* get(std::string_view key) {
    return const_cast<JsonValue*>(std::as_const(*this).get(key));
  }

  /// The string, moved out (this value is left holding ""); "" when this
  /// is not a string.
  std::string take_string() {
    return is_string() ? std::exchange(std::get<std::string>(data_), {})
                       : std::string();
  }

  Data& data() { return data_; }
  const Data& data() const { return data_; }

 private:
  Data data_;
};

/// Strict parse of a complete JSON document (surrounding whitespace
/// allowed, trailing garbage rejected). On failure returns nullopt and, if
/// `error` is non-null, a human-readable reason with byte offset.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

/// Append-only JSON renderer with automatic comma placement. Usage:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("states").value(std::uint64_t{42});
///   w.key("outcome").value("schedulable");
///   w.end_object();
///   std::string json = std::move(w).str();
///
/// value(double) renders with %.6g (stable, locale-independent); raw()
/// splices pre-rendered JSON (e.g. a cached result object) verbatim.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& null();
  JsonWriter& raw(std::string_view pre_rendered_json);

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  void comma_for_value();

  std::string out_;
  // One char per open scope: 'o'/'O' object (empty/nonempty), 'a'/'A'
  // array, 'k' pending key (value must follow).
  std::string stack_;
};

}  // namespace aadlsched::util
