// A compact recursive-descent JSON reader shared by the observability
// consumers: trace validation (obs/validate.cpp), attribution sidecar
// loading (obs/attr.cpp) and the bench-row provenance checker
// (tools/bench_validate.cpp); and the one string escaper every JSON
// writer uses (trace, chk report, attribution sidecar, sweep rows).
//
// The reader's output is only trustworthy if something independent
// re-reads it, so this is a real parser, not a regex scan.  It accepts
// exactly the subset the recorders emit (ASCII strings, \u escapes
// decoded to their low byte) and reports the first failure with its
// byte offset.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace dmr::obs {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind =
      Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* field(const std::string& name) const {
    for (const auto& [key, value] : fields) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

/// Parse one JSON document into `out`; returns false and sets `error`
/// (with a byte offset) on failure.
bool parse_json(const std::string& text, JsonValue& out, std::string& error);

/// The numeric value of `value`, or `fallback` when it is null or not a
/// number.
double json_number(const JsonValue* value, double fallback = 0.0);

/// The string value of `value`, or empty when it is null or not a
/// string.
std::string json_string(const JsonValue* value);

/// `text` escaped for use between the quotes of a JSON string: `"`, `\`,
/// \n and \t by name, every other control byte as \u00XX, so
/// parse_json reads back exactly `text`.
std::string json_escape(const std::string& text);

}  // namespace dmr::obs
