// RequestSpec: the one validated "please run this sweep and shape the
// report like so" object every entry point shares. A daemon request, a
// --jobs experiment, and a CLI invocation all deserialize into this
// struct through apply_request_field(), so the three paths recognize the
// same keys, enforce the same ranges, and reject with the same messages —
// the request API exists once, not once per transport.
//
// The recognized JSON keys mirror the apsq_dse flags one-to-one:
//
//   name, space, backend, mode, strategy, budget, search_seed,
//   objectives, threads, seed, where, csv, front_csv, top
//
// "backend" accepts only "analytic" and "strategy" only "evolve": both
// name the one scoring fidelity and search strategy, and stay so that
// existing specs keep parsing.
//
// Parsing is strict (unknown key / wrong type / out-of-range value throw
// naming the source, the context, and the key) but deliberately
// per-field: the cross-field consistency rules stay in
// SweepConfig::validate(), which the driver runs after assembly.
#pragma once

#include <string>

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

/// Apply one recognized field to a request. Returns false on an
/// unrecognized key (the caller decides whether that is an error — the
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

}  // namespace apsq::dse
