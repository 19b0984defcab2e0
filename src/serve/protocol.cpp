#include "serve/protocol.hpp"

#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/stats_writer.hpp"
#include "dse/report.hpp"
#include "dse/request.hpp"
#include "dse/store.hpp"
#include "serve/dispatcher.hpp"

namespace apsq::serve {

namespace {

void append_head(std::ostringstream& os, bool ok, const std::string& id) {
  os << "{\"schema_version\": " << kProtocolSchemaVersion
     << ", \"ok\": " << (ok ? "true" : "false");
  if (!id.empty()) os << ", \"id\": \"" << json_escape(id) << "\"";
}

std::string query_response(const std::string& id, const dse::RequestSpec& req,
                           const QueryResult& qr) {
  std::ostringstream os;
  append_head(os, true, id);
  if (!req.name.empty()) os << ", \"name\": \"" << json_escape(req.name) << "\"";
  os << ", \"points\": " << qr.results.size()
     << ", \"front_size\": " << qr.front_size
     << ", \"global_front_size\": " << qr.global_front_size << ", \"front\": [";
  bool first = true;
  for (const dse::EvalResult& r : qr.front) {
    os << (first ? "{" : ", {");
    first = false;
    dse::append_result_json(os, r);
    os << "}";
  }
  os << "], \"stats\": {\"store_hits\": " << qr.stats.store_hits
     << ", \"fresh_evaluations\": " << qr.stats.fresh_evaluations
     << ", \"coalesced\": " << qr.stats.coalesced
     << ", \"eval_batches\": " << qr.stats.eval_batches
     << ", \"wall_ms\": " << dse::format_double(qr.stats.wall_ms)
     << ", \"pool_threads\": " << qr.stats.pool_threads
     << ", \"pool_runs\": " << qr.stats.pool_runs
     << ", \"pool_steals\": " << qr.stats.pool_steals << "}}";
  return os.str();
}

}  // namespace

std::string error_response(const std::string& id, const std::string& msg) {
  std::ostringstream os;
  append_head(os, false, id);
  os << ", \"error\": \"" << json_escape(msg) << "\"}";
  return os.str();
}

LineResult handle_request_line(Dispatcher& dispatcher,
                               const std::string& line) {
  LineResult out;
  std::string id;
  try {
    JsonValue doc;
    try {
      doc = json_parse(line);
    } catch (const std::invalid_argument& e) {
      // json_parse speaks in line:column; prefix the source like every
      // other request-path error.
      throw std::runtime_error(std::string("request: ") + e.what());
    }
    if (!doc.is_object())
      throw std::runtime_error("request: top-level value is not an object");
    // Version gate first: a future client is rejected naming the version
    // and the supported range, not whichever of its keys is new.
    json_schema_version(doc, "request", 1, kProtocolSchemaVersion);
    if (const JsonValue* idv = doc.find("id")) id = idv->as_string();
    std::string cmd = "query";
    if (const JsonValue* cmdv = doc.find("cmd")) cmd = cmdv->as_string();

    if (cmd == "ping" || cmd == "shutdown") {
      std::ostringstream os;
      append_head(os, true, id);
      os << ", \"cmd\": \"" << cmd << "\"}";
      out.response = os.str();
      out.ok = true;
      out.shutdown = cmd == "shutdown";
      return out;
    }
    if (cmd == "stats") {
      dse::EvalStore& store = dispatcher.store();
      std::ostringstream os;
      append_head(os, true, id);
      os << ", \"cmd\": \"stats\", \"requests\": "
         << dispatcher.total_requests() << ", \"fresh_evaluations\": "
         << dispatcher.total_fresh_evaluations() << ", \"eval_batches\": "
         << dispatcher.total_eval_batches() << ", \"store_entries\": "
         << store.entry_count() << ", \"store_results\": "
         << store.result_count() << "}";
      out.response = os.str();
      out.ok = true;
      return out;
    }
    if (cmd != "query")
      throw std::runtime_error("request: unknown cmd \"" + cmd +
                               "\" (expected query|ping|stats|shutdown)");

    // A query: every remaining key is a RequestSpec field — the same
    // keys and ranges as a --jobs experiment. The output-file fields are
    // not: a client must not make the daemon write files it names.
    dse::RequestSpec req;
    for (const auto& [key, value] : doc.members()) {
      if (key == "schema_version" || key == "id" || key == "cmd") continue;
      if (key == "csv" || key == "front_csv")
        dse::request_error("request", "query",
                           "\"" + key +
                               "\" is not accepted by the daemon (it writes "
                               "no client-named files)");
      if (!dse::apply_request_field(key, value, req, "request", "query"))
        dse::request_error("request", "query", "unknown key \"" + key + "\"");
    }
    const QueryResult qr = dispatcher.query(req);
    out.response = query_response(id, req, qr);
    out.ok = true;
    return out;
  } catch (const std::exception& e) {
    out.response = error_response(id, e.what());
    out.ok = false;
    return out;
  }
}

}  // namespace apsq::serve
