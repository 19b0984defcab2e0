#include "common/json.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace apsq {

const char* JsonValue::type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

namespace {

[[noreturn]] void type_error(const char* expected, JsonValue::Type got) {
  throw std::invalid_argument(std::string("expected ") + expected + ", got " +
                              JsonValue::type_name(got));
}

[[noreturn]] void integer_error(const char* expected, double v) {
  throw std::invalid_argument(std::string("expected ") + expected + ", got " +
                              std::to_string(v));
}

/// A number written with a fraction or an exponent (5.0, 1e3) is read
/// through its double. Below 2^53 every integer has a double of its own,
/// so an integral one is the integer written; from 2^53 on neighbouring
/// integers share one (9007199254740993.0 reads as …992), so it is
/// rejected rather than rounded to an integer the text did not name.
bool integral_below_2_53(double v) {
  return std::fabs(v) < 0x1p53 && std::trunc(v) == v;
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("a bool", type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("a number", type_);
  if (!exact_integer_) return number_;
  // Rounds to nearest like strtod does, so the double is the same.
  const double m = static_cast<double>(magnitude_);
  return negative_ ? -m : m;
}

i64 JsonValue::as_i64() const {
  const double v = as_number();
  constexpr u64 kMinMagnitude = u64{1} << 63;  // |INT64_MIN|
  if (integral_below_2_53(v)) return static_cast<i64>(v);
  if (exact_integer_ && magnitude_ < kMinMagnitude)
    return negative_ ? -static_cast<i64>(magnitude_)
                     : static_cast<i64>(magnitude_);
  if (exact_integer_ && negative_ && magnitude_ == kMinMagnitude)
    return std::numeric_limits<i64>::min();
  integer_error("an integer", v);
}

u64 JsonValue::as_u64() const {
  const double v = as_number();
  if (exact_integer_ && (!negative_ || magnitude_ == 0)) return magnitude_;
  if (v >= 0.0 && integral_below_2_53(v)) return static_cast<u64>(v);
  integer_error(v < 0.0 ? "an integer >= 0" : "an integer", v);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("a string", type_);
  return string_;
}

size_t JsonValue::size() const {
  if (type_ != Type::kArray) type_error("an array", type_);
  return array_.size();
}

const JsonValue& JsonValue::at(size_t i) const {
  if (type_ != Type::kArray) type_error("an array", type_);
  if (i >= array_.size())
    throw std::invalid_argument("array index " + std::to_string(i) +
                                " out of range (size " +
                                std::to_string(array_.size()) + ")");
  return array_[i];
}

bool JsonValue::has(const std::string& key) const {
  return find(key) != nullptr;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("an object", type_);
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr)
    throw std::invalid_argument("missing key \"" + key + "\"");
  return *v;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) type_error("an object", type_);
  return object_;
}

// ---------------------------------------------------------------- parser

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // 1-based line:column of pos_, computed on demand — errors are rare.
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::invalid_argument(what + " at line " + std::to_string(line) +
                                ", column " + std::to_string(col));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        if (consume_literal("true"))
          v.bool_ = true;
        else if (consume_literal("false"))
          v.bool_ = false;
        else
          fail("invalid literal");
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected a string key");
      std::string key = parse_string();
      // Silently keeping one of two duplicate keys would run a different
      // job than the spec's author wrote — reject at parse time.
      for (const auto& [k, unused] : v.object_) {
        (void)unused;
        if (k == key) fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      skip_ws();
      v.object_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      v.array_.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid \\u escape");
          }
          // Encode the code point as UTF-8. Surrogate pairs are rejected —
          // nothing this repo emits uses them, and decoding them wrongly
          // would be worse than refusing.
          if (code >= 0xD800 && code <= 0xDFFF)
            fail("surrogate \\u escapes are not supported");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  JsonValue parse_number() {
    const size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !(peek() >= '0' && peek() <= '9')) fail("invalid number");
    // Grammar check up front (JSON forbids leading zeros, bare '.', etc.);
    // the validated token is converted below.
    const size_t int_start = pos_;
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const size_t int_end = pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !(peek() >= '0' && peek() <= '9'))
        fail("invalid number: expected digits after '.'");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !(peek() >= '0' && peek() <= '9'))
        fail("invalid number: expected exponent digits");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    // An integer literal that fits 64 bits is kept exact.
    u64 magnitude = 0;
    bool exact = pos_ == int_end;
    for (size_t i = int_start; i < int_end && exact; ++i)
      exact = !__builtin_mul_overflow(magnitude, u64{10}, &magnitude) &&
              !__builtin_add_overflow(
                  magnitude, static_cast<u64>(text_[i] - '0'), &magnitude);
    if (exact) {
      v.exact_integer_ = true;
      v.negative_ = int_start > start;
      v.magnitude_ = magnitude;
      return v;
    }
    const std::string token = text_.substr(start, pos_ - start);
    v.number_ = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v.number_)) fail("number out of double range");
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue json_parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

JsonValue json_parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error(path + ": cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof())
    throw std::runtime_error(path + ": read error");
  try {
    return json_parse(buf.str());
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

i64 json_schema_version(const JsonValue& doc, const std::string& source,
                        i64 lo, i64 hi, const char* key) {
  const JsonValue* v = doc.is_object() ? doc.find(key) : nullptr;
  if (v == nullptr) return lo;  // unversioned document: the original (v1)
  i64 found = 0;
  try {
    found = v->as_i64();
  } catch (const std::exception& e) {
    throw std::runtime_error(source + ": " + key + ": " + e.what());
  }
  if (found < lo || found > hi)
    throw std::runtime_error(source + ": unsupported schema_version " +
                             std::to_string(found) + " (supported: " +
                             std::to_string(lo) + ".." + std::to_string(hi) +
                             ")");
  return found;
}

}  // namespace apsq
