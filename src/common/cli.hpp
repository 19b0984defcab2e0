// Checked command-line value parsing for the example CLIs.
//
// std::atoi-style parsing turns "--threads foo" into 0 and accepts
// "12abc" silently; these helpers require the whole token to parse, apply
// a range check, and report the offending flag by name so a typo exits
// with a diagnostic instead of running a misconfigured sweep.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/types.hpp"

namespace apsq {

/// Parse `text` as a decimal integer in [lo, hi] into `out`. On failure
/// prints "<flag>: ..." to `err` and returns false, leaving `out`
/// untouched.
inline bool parse_i64_flag(const char* flag, const char* text, i64 lo, i64 hi,
                           i64& out, std::ostream& err = std::cerr) {
  if (text == nullptr || *text == '\0') {
    err << flag << ": empty value\n";
    return false;
  }
  // strtoll skips leading whitespace; the whole token must be the number.
  if (std::isspace(static_cast<unsigned char>(*text))) {
    err << flag << ": expected an integer, got '" << text << "'\n";
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    err << flag << ": expected an integer, got '" << text << "'\n";
    return false;
  }
  if (errno == ERANGE || v < lo || v > hi) {
    err << flag << ": value " << text << " out of range [" << lo << ", " << hi
        << "]\n";
    return false;
  }
  out = static_cast<i64>(v);
  return true;
}

/// Same contract for an `int`-typed option.
inline bool parse_int_flag(const char* flag, const char* text, int lo, int hi,
                           int& out, std::ostream& err = std::cerr) {
  i64 wide = 0;
  if (!parse_i64_flag(flag, text, lo, hi, wide, err)) return false;
  out = static_cast<int>(wide);
  return true;
}

/// Parse an unsigned 64-bit value; base 0, so "0xD5E" and "1234" both
/// work (seeds are conventionally written in hex). A leading '-' is
/// rejected — strtoull would silently wrap it.
inline bool parse_u64_flag(const char* flag, const char* text, u64& out,
                           std::ostream& err = std::cerr) {
  if (text == nullptr || *text == '\0') {
    err << flag << ": empty value\n";
    return false;
  }
  if (*text == '-' || std::isspace(static_cast<unsigned char>(*text))) {
    err << flag << ": expected a non-negative integer, got '" << text << "'\n";
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') {
    err << flag << ": expected an integer, got '" << text << "'\n";
    return false;
  }
  if (errno == ERANGE) {
    err << flag << ": value " << text << " out of range\n";
    return false;
  }
  out = static_cast<u64>(v);
  return true;
}

/// Cross-flag validation: a flag that only makes sense in some mode (e.g.
/// --budget without --mode search) must exit 1 naming the flag
/// and the requirement, never run a sweep that silently ignores it.
/// Returns true when the combination is fine (flag absent, or requirement
/// met).
inline bool flag_requires(bool flag_given, const char* flag,
                          bool requirement_met, const char* requirement,
                          std::ostream& err = std::cerr) {
  if (!flag_given || requirement_met) return true;
  err << flag << ": requires " << requirement << "\n";
  return false;
}

/// Run a throwing enum parser (parse_backend, ObjectiveSet::parse, …)
/// over a flag value. On an unrecognized value the parser's exception is
/// reported as "<flag>: <message>" and false is returned, so the CLI
/// exits 1 naming the offending flag instead of silently falling back to
/// a default. `out` is untouched on failure.
template <typename T, typename Parser>
inline bool parse_enum_flag(const char* flag, const char* text,
                            Parser&& parse, T& out,
                            std::ostream& err = std::cerr) {
  try {
    out = std::forward<Parser>(parse)(text);
    return true;
  } catch (const std::exception& e) {
    err << flag << ": " << e.what() << "\n";
    return false;
  }
}

}  // namespace apsq
