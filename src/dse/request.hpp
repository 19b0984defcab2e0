// RequestSpec: the one validated "please run this sweep and shape the
// report like so" object every entry point shares. A daemon request, a
// --jobs experiment, and an apsq_dse invocation all fill this struct
// through one field table (request.cpp): each field's JSON key, flag,
// range and setter are declared once. apply_request_field() reads a JSON
// value, apply_request_flag() a flag's text; each keeps its own value
// conversion and message format, so the paths recognize the same fields
// and enforce the same ranges.
//
// A key and its flag name the same field ("search_seed" and
// --search-seed). Two fields live on one side only: "name" (the experiment
// label) has no flag, and --store-in / --store-out have no key (a job spec
// names one shared store, the daemon has its own).
//
// "backend" accepts only "analytic" and "strategy" only "evolve": both
// name the one scoring fidelity and search strategy, and stay so that
// existing specs keep parsing.
//
// Parsing is strict (unknown key / wrong type / out-of-range value is
// rejected naming the key or flag) but deliberately per-field: the
// cross-field consistency rules stay in SweepConfig::validate(), which
// every entry point runs after assembly.
//
// JobSpec is a --jobs file: many RequestSpecs sharing defaults and one
// evaluated-space store:
//
//   {
//     "store_in":  "space.json",        // optional: preload the shared store
//     "store_out": "space.json",        // optional: snapshot it afterwards
//     "defaults":  { "space": "paper", "backend": "analytic", ... },
//     "experiments": [
//       { "name": "core-front" },
//       { "name": "energy-latency", "objectives": "energy,latency" }
//     ]
//   }
//
// An experiment starts from `defaults` and overrides field by field. An
// optional top-level "schema_version" (absent = 1) is checked against the
// versions this build reads.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "dse/sweep.hpp"

namespace apsq {
class JsonValue;
}

namespace apsq::dse {

/// One request: a sweep plus its report shape.
struct RequestSpec {
  std::string name;  ///< experiment / request label
  SweepConfig config;
  std::string csv;        ///< write every evaluated point here
  std::string front_csv;  ///< write the front here
  int top = 20;           ///< front rows to print / return (0 = all)
};

/// Throw the canonical request-parse error: "<source>: <where>: <reason>"
/// as std::runtime_error. `source` is the spec path or "request";
/// `where` the context ("experiment 2", "defaults", "request").
[[noreturn]] void request_error(const std::string& source,
                                const std::string& where,
                                const std::string& reason);

/// Apply one JSON field to a request. Returns false on a key the table
/// has no JSON row for (the caller decides whether that is an error — the
/// job-spec path names the experiment, the daemon names the request).
/// Type mismatches and out-of-range values throw via request_error.
bool apply_request_field(const std::string& key, const JsonValue& v,
                         RequestSpec& r, const std::string& source,
                         const std::string& where);

/// Apply every member of a JSON object, rejecting unknown keys. With
/// `allow_name` false, "name" is rejected too (a defaults block cannot
/// name anything).
void apply_request_object(const JsonValue& obj, RequestSpec& r,
                          const std::string& source, const std::string& where,
                          bool allow_name);

/// Outcome of apply_request_flag.
enum class FlagResult {
  kUnknown,   ///< no request field has this flag; nothing written
  kApplied,   ///< the flag consumed `text`
  kRejected,  ///< missing or invalid value; a diagnostic went to `err`
};

/// Apply one command-line flag and its value to a request. `text` is the
/// next argument, or nullptr when the flag ended the command line. On a
/// rejection, prints "<flag>: ..." (or "missing value for <flag>") to
/// `err` and leaves `r` untouched.
FlagResult apply_request_flag(const std::string& flag, const char* text,
                              RequestSpec& r, std::ostream& err = std::cerr);

/// A --jobs file: the experiments to run in one process and the one store
/// they all answer from and record into.
struct JobSpec {
  std::string store_in;
  std::string store_out;
  std::vector<RequestSpec> experiments;  ///< unnamed ones are "exp<index>"

  /// Parse a spec file. Throws std::runtime_error — message prefixed with
  /// `path` — on unreadable files, JSON errors, unknown keys, wrong
  /// types, out-of-range values, or an empty experiment list.
  static JobSpec parse_file(const std::string& path);

  /// Parse an already-loaded document; `source` prefixes error messages
  /// (the file path, or a label like "<inline>" in tests).
  static JobSpec parse(const JsonValue& doc, const std::string& source);
};

}  // namespace apsq::dse
