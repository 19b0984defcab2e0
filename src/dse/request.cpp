#include "dse/request.hpp"

#include <cmath>
#include <stdexcept>

#include "common/json.hpp"

namespace apsq::dse {

namespace {

/// The flag ranges, mirrored so a request rejects exactly what the CLI
/// does.
constexpr i64 kBudgetMax = i64{1} << 40;
constexpr int kThreadsMax = 4096;
constexpr int kTopMax = 1 << 20;

i64 as_i64_in(const JsonValue& v, const std::string& source,
              const std::string& where, const std::string& key, i64 lo,
              i64 hi) {
  const i64 n = v.as_i64();
  if (n < lo || n > hi)
    request_error(source, where,
                  "\"" + key + "\" must be in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "], got " + std::to_string(n));
  return n;
}

int as_int_in(const JsonValue& v, const std::string& source,
              const std::string& where, const std::string& key, i64 lo,
              i64 hi) {
  return static_cast<int>(as_i64_in(v, source, where, key, lo, hi));
}

}  // namespace

void request_error(const std::string& source, const std::string& where,
                   const std::string& reason) {
  throw std::runtime_error(source + ": " + where + ": " + reason);
}

bool apply_request_field(const std::string& key, const JsonValue& v,
                         RequestSpec& r, const std::string& source,
                         const std::string& where) {
  SweepConfig& c = r.config;
  try {
    if (key == "name") {
      r.name = v.as_string();
    } else if (key == "space") {
      c.space = v.as_string();
    } else if (key == "backend") {
      parse_backend(v.as_string());  // validates: analytic is the only one
    } else if (key == "objectives") {
      c.objectives = ObjectiveSet::parse(v.as_string());
    } else if (key == "threads") {
      c.threads = as_int_in(v, source, where, key, 1, kThreadsMax);
    } else if (key == "seed") {
      // JSON numbers are doubles, so seeds above 2^53 are not exactly
      // representable — as_i64 rejects them rather than rounding.
      const i64 s = v.as_i64();
      if (s < 0) request_error(source, where, "\"seed\" must be >= 0");
      c.seed = static_cast<u64>(s);
    } else if (key == "mode") {
      c.mode = parse_run_mode(v.as_string());
    } else if (key == "strategy") {
      c.strategy = parse_strategy(v.as_string());
      c.strategy_set = true;
    } else if (key == "budget") {
      c.budget = as_i64_in(v, source, where, key, 1, kBudgetMax);
      c.budget_set = true;
    } else if (key == "search_seed") {
      const i64 s = v.as_i64();
      if (s < 0) request_error(source, where, "\"search_seed\" must be >= 0");
      c.search_seed = static_cast<u64>(s);
      c.search_seed_set = true;
    } else if (key == "where") {
      c.where = v.as_string();
      parse_constraints(c.where);  // reject malformed filters at parse time
    } else if (key == "csv") {
      r.csv = v.as_string();
    } else if (key == "front_csv") {
      r.front_csv = v.as_string();
    } else if (key == "top") {
      r.top = as_int_in(v, source, where, key, 0, kTopMax);
    } else {
      return false;
    }
  } catch (const std::runtime_error&) {
    throw;  // already source-prefixed (the request_error calls above)
  } catch (const std::exception& ex) {
    // Type mismatches from the JsonValue accessors and value errors from
    // parse_backend / ObjectiveSet::parse / parse_constraints: attach the
    // source, the context, and the key they came from.
    request_error(source, where, "\"" + key + "\": " + ex.what());
  }
  return true;
}

void apply_request_object(const JsonValue& obj, RequestSpec& r,
                          const std::string& source, const std::string& where,
                          bool allow_name) {
  for (const auto& [key, value] : obj.members()) {
    if (key == "name" && !allow_name)
      request_error(source, where, "\"name\" is not a defaults field");
    if (!apply_request_field(key, value, r, source, where))
      request_error(source, where, "unknown key \"" + key + "\"");
  }
}

}  // namespace apsq::dse
