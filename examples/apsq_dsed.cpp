// apsq_dsed — resident DSE daemon: serve the warm evaluated-space store
// behind the versioned request API.
//
// Loads an EvalStore snapshot once, then answers front queries forever —
// each query is a RequestSpec (the same validated object a CLI
// invocation or a --jobs experiment builds), answered by a SweepSession
// on the shared store: from the store when warm, and when cold by one
// evaluation per scoring identity however many requests ask at once.
//
//   apsq_dsed --store space.json                 # serve on an ephemeral port
//   apsq_dsed --port 7421 --store space.json
//   apsq_dsed --port-file port.txt &             # scripts read the port
//   printf '%s\n' '{"cmd": "ping"}' | apsq_dsed --once
//   printf '%s\n' '{"top": 3}' | apsq_dsed --once --store space.json
//
// The wire protocol (line-delimited JSON, schema_version 1) is documented
// in src/serve/protocol.hpp and examples/jobs/PROTOCOL.md.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "dse/store.hpp"
#include "serve/dispatcher.hpp"
#include "serve/server.hpp"

using namespace apsq;

namespace {

struct Options {
  std::string store_path;      ///< snapshot to preload (optional)
  std::string store_out_path;  ///< snapshot to write on clean shutdown
  int port = 0;
  std::string port_file;
  int threads = 0;  ///< 0 = leave the pool width to the first request
  bool once = false;
  bool help = false;
};

void print_help() {
  std::cout <<
      "apsq_dsed — resident DSE daemon over the evaluated-space store\n\n"
      "  --store PATH      preload this evaluated-space snapshot (queries\n"
      "                    it covers are answered with 0 fresh evaluations)\n"
      "  --store-out PATH  snapshot the (possibly grown) store to PATH on\n"
      "                    clean shutdown (write-to-temp + rename)\n"
      "  --port N          TCP port on 127.0.0.1 (default 0 = ephemeral)\n"
      "  --port-file PATH  write the bound port here once listening\n"
      "  --once            serve stdin → stdout instead of TCP and exit\n"
      "                    when the stream ends (exit 1 if any request\n"
      "                    failed) — the protocol is identical\n"
      "  --threads N       width of the shared worker pool (default: let\n"
      "                    the first cold request decide; an explicit\n"
      "                    APSQ_POOL_THREADS env var wins)\n"
      "  --help            this text\n\n"
      "Protocol: one JSON object per line in, one per line out.\n"
      "  {\"schema_version\": 1, \"cmd\": \"query\", ...RequestSpec...}\n"
      "  cmd = query (default) | ping | stats | shutdown\n"
      "See examples/jobs/PROTOCOL.md for the full request/response schema.\n";
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      print_help();
      o.help = true;
      return false;
    } else if (a == "--store") {
      const char* v = next("--store");
      if (!v) return false;
      o.store_path = v;
    } else if (a == "--store-out") {
      const char* v = next("--store-out");
      if (!v) return false;
      o.store_out_path = v;
    } else if (a == "--port") {
      const char* v = next("--port");
      if (!v || !parse_int_flag("--port", v, 0, 65535, o.port)) return false;
    } else if (a == "--port-file") {
      const char* v = next("--port-file");
      if (!v) return false;
      o.port_file = v;
    } else if (a == "--once") {
      o.once = true;
    } else if (a == "--threads") {
      const char* v = next("--threads");
      if (!v || !parse_int_flag("--threads", v, 1, 4096, o.threads))
        return false;
    } else {
      std::cerr << "unknown flag: " << a << " (try --help)\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return o.help ? 0 : 1;

  // Pin the shared pool's width before any request can (overwrite=0: an
  // explicit env var from the operator still wins).
  if (o.threads > 0)
    setenv("APSQ_POOL_THREADS", std::to_string(o.threads).c_str(),
           /*overwrite=*/0);

  dse::EvalStore store;
  if (!o.store_path.empty()) {
    try {
      const size_t n = store.load_file(o.store_path);
      std::cerr << "apsq_dsed: loaded " << n << " snapshot entr"
                << (n == 1 ? "y" : "ies") << " (" << store.result_count()
                << " scored points) from " << o.store_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "apsq_dsed: " << e.what() << "\n";
      return 1;
    }
  }

  serve::Dispatcher dispatcher(store);
  int rc;
  if (o.once) {
    rc = serve::serve_stream(dispatcher, std::cin, std::cout) > 0 ? 1 : 0;
  } else {
    serve::ServeOptions sopts;
    sopts.port = o.port;
    sopts.port_file = o.port_file;
    sopts.log = &std::cerr;
    rc = serve::serve_tcp(dispatcher, sopts);
  }
  if (rc == 0 && !o.store_out_path.empty()) {
    if (!store.save_file(o.store_out_path)) {
      std::cerr << "apsq_dsed: failed to write " << o.store_out_path << "\n";
      return 1;
    }
    std::cerr << "apsq_dsed: saved " << store.entry_count()
              << " snapshot entr" << (store.entry_count() == 1 ? "y" : "ies")
              << " to " << o.store_out_path << "\n";
  }
  return rc;
}
