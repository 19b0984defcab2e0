#include "dse/request.hpp"

#include <stdexcept>

#include "common/cli.hpp"
#include "common/json.hpp"

namespace apsq::dse {

namespace {

constexpr i64 kBudgetMax = i64{1} << 40;
constexpr i64 kThreadsMax = 4096;
constexpr i64 kTopMax = i64{1} << 20;

/// Job-spec files are v1 of the spec schema.
constexpr i64 kJobSpecSchemaVersion = 1;

/// A text setter rejects its value by throwing a std::exception, before it
/// writes anything (the enum and filter parsers).
using TextSetter = void (*)(RequestSpec&, const std::string&);
using IntSetter = void (*)(RequestSpec&, i64);
using U64Setter = void (*)(RequestSpec&, u64);

/// One request field. Exactly one setter is non-null; it names the value
/// kind.
struct Field {
  const char* key;   ///< JSON key; nullptr for a flag-only field
  const char* flag;  ///< flag; nullptr for a JSON-only field
  TextSetter text;
  IntSetter integer;  ///< an integer in [lo, hi]
  i64 lo;
  i64 hi;
  U64Setter non_negative;  ///< an unsigned 64-bit integer
};

constexpr Field text_field(const char* key, const char* flag, TextSetter set) {
  return {key, flag, set, nullptr, 0, 0, nullptr};
}

constexpr Field int_field(const char* key, const char* flag, i64 lo, i64 hi,
                          IntSetter set) {
  return {key, flag, nullptr, set, lo, hi, nullptr};
}

constexpr Field u64_field(const char* key, const char* flag, U64Setter set) {
  return {key, flag, nullptr, nullptr, 0, 0, set};
}

constexpr Field kFields[] = {
    text_field("name", nullptr,
               [](RequestSpec& r, const std::string& s) { r.name = s; }),
    text_field("space", "--space",
               [](RequestSpec& r, const std::string& s) { r.config.space = s; }),
    // Validates only: analytic is the one backend.
    text_field("backend", "--backend",
               [](RequestSpec&, const std::string& s) { parse_backend(s); }),
    text_field("mode", "--mode",
               [](RequestSpec& r, const std::string& s) {
                 r.config.mode = parse_run_mode(s);
               }),
    text_field("strategy", "--strategy",
               [](RequestSpec& r, const std::string& s) {
                 r.config.strategy = parse_strategy(s);
                 r.config.strategy_set = true;
               }),
    // A budget of 0 would evaluate nothing and report an empty front.
    int_field("budget", "--budget", 1, kBudgetMax,
              [](RequestSpec& r, i64 n) {
                r.config.budget = n;
                r.config.budget_set = true;
              }),
    u64_field("search_seed", "--search-seed",
              [](RequestSpec& r, u64 s) {
                r.config.search_seed = s;
                r.config.search_seed_set = true;
              }),
    text_field("objectives", "--objectives",
               [](RequestSpec& r, const std::string& s) {
                 r.config.objectives = ObjectiveSet::parse(s);
               }),
    // A malformed filter is rejected at parse time, not when it runs.
    text_field("where", "--where",
               [](RequestSpec& r, const std::string& s) {
                 parse_constraints(s);
                 r.config.where = s;
               }),
    int_field("threads", "--threads", 1, kThreadsMax,
              [](RequestSpec& r, i64 n) {
                r.config.threads = static_cast<int>(n);
              }),
    u64_field("seed", "--seed",
              [](RequestSpec& r, u64 s) { r.config.seed = s; }),
    text_field("csv", "--csv",
               [](RequestSpec& r, const std::string& s) { r.csv = s; }),
    text_field("front_csv", "--front-csv",
               [](RequestSpec& r, const std::string& s) { r.front_csv = s; }),
    int_field("top", "--top", 0, kTopMax,
              [](RequestSpec& r, i64 n) { r.top = static_cast<int>(n); }),
    text_field(nullptr, "--store-in",
               [](RequestSpec& r, const std::string& s) {
                 r.config.store_in = s;
               }),
    text_field(nullptr, "--store-out",
               [](RequestSpec& r, const std::string& s) {
                 r.config.store_out = s;
               }),
};

/// The row whose `column` (key or flag) is `name`; nullptr if none.
const Field* find_field(const char* Field::*column, const std::string& name) {
  for (const Field& f : kFields)
    if (f.*column != nullptr && name == f.*column) return &f;
  return nullptr;
}

}  // namespace

void request_error(const std::string& source, const std::string& where,
                   const std::string& reason) {
  throw std::runtime_error(source + ": " + where + ": " + reason);
}

bool apply_request_field(const std::string& key, const JsonValue& v,
                         RequestSpec& r, const std::string& source,
                         const std::string& where) {
  const Field* f = find_field(&Field::key, key);
  if (f == nullptr) return false;
  try {
    if (f->text != nullptr) {
      f->text(r, v.as_string());
    } else if (f->integer != nullptr) {
      const i64 n = v.as_i64();
      if (n < f->lo || n > f->hi)
        request_error(source, where,
                      "\"" + key + "\" must be in [" + std::to_string(f->lo) +
                          ", " + std::to_string(f->hi) + "], got " +
                          std::to_string(n));
      f->integer(r, n);
    } else if (v.as_number() < 0) {
      v.as_i64();  // a fraction still fails as "expected an integer"
      request_error(source, where, "\"" + key + "\" must be >= 0");
    } else {
      f->non_negative(r, v.as_u64());
    }
  } catch (const std::runtime_error&) {
    throw;  // already source-prefixed (the request_error calls above)
  } catch (const std::exception& ex) {
    // Type mismatches from the JsonValue accessors and value errors from
    // the setters' parsers: attach the source, the context, and the key.
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

FlagResult apply_request_flag(const std::string& flag, const char* text,
                              RequestSpec& r, std::ostream& err) {
  const Field* f = find_field(&Field::flag, flag);
  if (f == nullptr) return FlagResult::kUnknown;
  if (text == nullptr) {
    err << "missing value for " << flag << "\n";
    return FlagResult::kRejected;
  }
  bool ok = false;
  if (f->text != nullptr) {
    // The setter runs on a copy, so a rejected value leaves `r` untouched.
    const auto set = [f, &r](const std::string& s) {
      RequestSpec next = r;
      f->text(next, s);
      return next;
    };
    ok = parse_enum_flag(f->flag, text, set, r, err);
  } else if (f->integer != nullptr) {
    i64 n = 0;
    ok = parse_i64_flag(f->flag, text, f->lo, f->hi, n, err);
    if (ok) f->integer(r, n);
  } else {
    // Base 0: seeds are conventionally written in hex ("0xD5E").
    u64 n = 0;
    ok = parse_u64_flag(f->flag, text, n, err);
    if (ok) f->non_negative(r, n);
  }
  return ok ? FlagResult::kApplied : FlagResult::kRejected;
}

JobSpec JobSpec::parse(const JsonValue& doc, const std::string& source) {
  if (!doc.is_object())
    request_error(source, "spec", "top-level value is not an object");
  // Version gate first: a future spec is rejected naming the version and
  // the supported range, not whichever of its keys happens to be new.
  json_schema_version(doc, source, 1, kJobSpecSchemaVersion);
  JobSpec spec;
  RequestSpec defaults;
  const JsonValue* experiments = nullptr;
  try {
    for (const auto& [key, value] : doc.members()) {
      if (key == "schema_version") {
        // validated above
      } else if (key == "store_in") {
        spec.store_in = value.as_string();
      } else if (key == "store_out") {
        spec.store_out = value.as_string();
      } else if (key == "defaults") {
        apply_request_object(value, defaults, source, "defaults",
                             /*allow_name=*/false);
      } else if (key == "experiments") {
        experiments = &value;
      } else {
        request_error(source, "spec", "unknown key \"" + key + "\"");
      }
    }
    if (experiments == nullptr)
      request_error(source, "spec", "missing \"experiments\" array");
    if (experiments->size() == 0)
      request_error(source, "spec", "\"experiments\" is empty");
    for (size_t i = 0; i < experiments->size(); ++i) {
      RequestSpec e = defaults;  // field-by-field override starts here
      e.name = "exp" + std::to_string(i);
      apply_request_object(experiments->at(i), e, source,
                           "experiment " + std::to_string(i),
                           /*allow_name=*/true);
      spec.experiments.push_back(std::move(e));
    }
  } catch (const std::runtime_error&) {
    throw;  // already source-prefixed
  } catch (const std::exception& ex) {
    // Structural type errors (e.g. "experiments" not an array).
    throw std::runtime_error(source + ": " + ex.what());
  }
  return spec;
}

JobSpec JobSpec::parse_file(const std::string& path) {
  return parse(json_parse_file(path), path);
}

}  // namespace apsq::dse
