// Minimal JSON reader — the parsing half of the repo's JSON story.
//
// StatsWriter / bench_json emit JSON; this module reads it back: job
// specs and daemon requests (dse/request.hpp) and evaluated-space
// snapshots (dse/store.hpp) arrive as text a user or an earlier run wrote. The parser covers
// the full JSON grammar (objects, arrays, strings with escapes, numbers,
// true/false/null) with two deliberate strictnesses on top of RFC 8259:
// duplicate object keys are an error (a spec that silently dropped one of
// two "backend" keys would run the wrong sweep), and trailing garbage
// after the top-level value is an error. Errors throw
// std::invalid_argument with 1-based line:column so a typo in a hand
// edited spec is findable. Object key order is preserved so consumers can
// report the *first* unknown key deterministically.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace apsq {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Checked accessors: throw std::invalid_argument naming the actual
  /// type on a mismatch, so consumers get "expected a number, got string"
  /// instead of a default value silently standing in.
  bool as_bool() const;
  double as_number() const;
  /// The number as an integer; throws when it has a fractional part or
  /// falls outside i64 (a spec saying `"threads": 2.5` is a mistake, not
  /// a request for 2).
  i64 as_i64() const;
  const std::string& as_string() const;

  /// Arrays: element count / checked indexed access.
  size_t size() const;
  const JsonValue& at(size_t i) const;

  /// Objects: membership, checked lookup (throws naming the key), and
  /// optional lookup (nullptr when absent). `members` preserves source
  /// order for deterministic unknown-key diagnostics.
  bool has(const std::string& key) const;
  const JsonValue& get(const std::string& key) const;
  const JsonValue* find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  static const char* type_name(Type t);

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parse one JSON document. Throws std::invalid_argument with a 1-based
/// "line L, column C" location on any syntax error, duplicate object key,
/// or trailing non-whitespace after the document.
JsonValue json_parse(const std::string& text);

/// Read and parse a JSON file. Errors (unreadable file, parse failure)
/// throw std::runtime_error whose message starts with the path, so a bad
/// spec or snapshot names the offending file.
JsonValue json_parse_file(const std::string& path);

/// Check a document's `schema_version` against the [lo, hi] range this
/// build understands and return it. A document without the key is treated
/// as version `lo` (every persisted/wire format predating explicit
/// versioning is its v1), so existing files keep loading; a version
/// outside the range throws std::runtime_error naming `source` (the file
/// path or "request"), the found version, and the supported range —
/// future formats are rejected up front instead of failing on whatever
/// key changed. `key` exists for formats that carried the version under
/// an older name.
i64 json_schema_version(const JsonValue& doc, const std::string& source,
                        i64 lo = 1, i64 hi = 1,
                        const char* key = "schema_version");

}  // namespace apsq
