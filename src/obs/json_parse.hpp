#pragma once

#include <cmath>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace beepmis::obs {

/// Parsed JSON document node. Small, recursive, value-semantic — sized for
/// the artifacts this repo emits (manifests, dumps, bench captures), not for
/// adversarial inputs. Numbers are stored as doubles; every numeric field we
/// write fits a double exactly.
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Object, Array };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  bool is_object() const noexcept { return type == Type::Object; }
  bool is_array() const noexcept { return type == Type::Array; }
  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const { return object.at(key); }

  /// Lookup with defaults — `get("graph").get("n").as_number(0)` style
  /// traversal that never throws on missing members (returns a shared Null
  /// node instead).
  const JsonValue& get(const std::string& key) const;
  double as_number(double fallback = 0.0) const {
    return type == Type::Number ? number : fallback;
  }
  std::string as_string(const std::string& fallback = "") const {
    return type == Type::String ? str : fallback;
  }
};

/// A count: an integer in [0, 2^53], the range a double holds exactly, so the
/// conversion to std::uint64_t is defined and exact.
inline bool json_is_count(const JsonValue& v) {
  return v.type == JsonValue::Type::Number && v.number >= 0.0 &&
         v.number <= 9007199254740992.0 && v.number == std::floor(v.number);
}

/// A finite number (json_parse reads an overflowing literal as infinity).
inline bool json_is_finite(const JsonValue& v) {
  return v.type == JsonValue::Type::Number && std::isfinite(v.number);
}

/// Strict recursive-descent parse of one complete JSON document. Returns
/// false on any syntax error or trailing garbage; `error`, if non-null,
/// receives a short description with the byte offset.
bool json_parse(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace beepmis::obs
