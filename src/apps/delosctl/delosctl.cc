// delosctl: command-line inspector for a running Delos server.
//
// Talks HTTP to the admin endpoint (src/net/admin_server.h):
//
//   delosctl [--host H] [--port P] status    per-engine health table
//   delosctl [...] top                       metric rates (time-series ring)
//   delosctl [...] stack                     engine stack + cursors (JSON)
//   delosctl [...] metrics                   Prometheus exposition
//   delosctl [...] healthz                   health JSON; exit 1 if UNHEALTHY
//   delosctl [...] flight                    flight-recorder tail
//   delosctl [...] trace <id>                one end-to-end trace
//   delosctl [...] latency                   per-stage latency attribution
//   delosctl [...] slow [id]                 slow-trace exemplars (detail with id)
//   delosctl [...] workload                  per-layer resource accounting + hot spots
//   delosctl [...] top keys|clients          heavy-hitter tables (workload sketches)
//   delosctl [...] digest                    digest-beacon counters + sample table
//   delosctl [...] divergence                earliest-divergence conviction report
//
// `--json` switches status, top, top keys|clients, metrics, latency, slow,
// workload, digest and divergence to machine-readable JSON (appends
// ?format=json to the admin path) for scripting and CI. stack and healthz
// always answer JSON; flight and trace are text only.
//
// `--demo` boots a single-server Zelos cluster in-process, drives a short
// workload, serves it on an ephemeral loopback port, and runs the requested
// command against it over real HTTP — a self-contained tour of the admin
// plane with no cluster to set up.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "src/apps/zelos/zelos.h"
#include "src/common/trace.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"
#include "src/net/admin_server.h"

using namespace delos;

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: delosctl [--host HOST] [--port PORT] [--demo] [--json] COMMAND [ARG]\n"
               "\n"
               "commands:\n"
               "  status       per-engine health table\n"
               "  top          metric rates from the time-series ring\n"
               "  top keys     hot keys (workload attribution heavy hitters)\n"
               "  top clients  top clients (workload attribution heavy hitters)\n"
               "  stack        engine stack + apply cursors (JSON)\n"
               "  metrics      Prometheus exposition\n"
               "  healthz      health report (exit 1 when UNHEALTHY)\n"
               "  flight       flight-recorder tail\n"
               "  trace ID     render trace ID\n"
               "  latency      per-stage latency attribution + critical-path dominance\n"
               "  slow [ID]    slow-trace exemplar list (or one exemplar's detail)\n"
               "  workload     per-layer resource accounting + hot-spot verdicts\n"
               "  digest       digest-beacon counters + per-position sample table\n"
               "  divergence   earliest-divergence conviction report\n"
               "\n"
               "  --demo       run against an in-process single-server Zelos cluster\n"
               "  --json       machine-readable output (status, top, top keys|clients,\n"
               "               metrics, latency, slow, workload, digest, divergence;\n"
               "               stack and healthz are always JSON, flight and trace text)\n");
}

// Maps a command (+ optional argument) to an admin-endpoint path; empty on
// unknown command.
std::string CommandPath(const std::string& command, const std::string& arg) {
  if (command == "status") return "/status";
  if (command == "top") {
    if (arg.empty()) return "/top";
    if (arg == "keys") return "/top/keys";
    if (arg == "clients") return "/top/clients";
    std::fprintf(stderr, "delosctl: top takes no argument, 'keys', or 'clients'\n");
    return "";
  }
  if (command == "workload") return "/workload";
  if (command == "digest") return "/digest";
  if (command == "divergence") return "/divergence";
  if (command == "stack") return "/stack";
  if (command == "metrics") return "/metrics";
  if (command == "healthz") return "/healthz";
  if (command == "flight") return "/flight";
  if (command == "latency") return "/latency";
  if (command == "slow") {
    return arg.empty() ? "/slow" : "/slow/" + arg;
  }
  if (command == "trace") {
    if (arg.empty()) {
      std::fprintf(stderr, "delosctl: trace needs an id (see /flight for recent ids)\n");
      return "";
    }
    return "/trace/" + arg;
  }
  return "";
}

int RunCommand(const std::string& host, uint16_t port, const std::string& command,
               const std::string& arg, bool json) {
  std::string path = CommandPath(command, arg);
  if (path.empty()) {
    PrintUsage();
    return 2;
  }
  if (json) {
    path += "?format=json";
  }
  int status = 0;
  std::string body;
  if (!AdminHttpGet(host, port, path, &status, &body)) {
    std::fprintf(stderr, "delosctl: cannot reach %s:%u%s\n", host.c_str(), port, path.c_str());
    return 2;
  }
  std::fputs(body.c_str(), stdout);
  if (command == "healthz") {
    return status == 200 ? 0 : 1;
  }
  if (status != 200) {
    std::fprintf(stderr, "delosctl: %s returned HTTP %d\n", path.c_str(), status);
    return 1;
  }
  return 0;
}

// The --demo cluster: one Zelos server with the production-shaped stack,
// short workload, admin server on an ephemeral port.
int RunDemo(const std::string& command, const std::string& arg, bool json) {
  std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> apps;
  Tracer tracer;
  Cluster::Options options;
  options.num_servers = 1;
  options.base_options.tracer = &tracer;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = ZelosStackConfig(nullptr);
    config.batch_max_entries = 8;
    // A tight beacon cadence so the demo's short burst crosses it several
    // times and `delosctl digest` has checked beacons to show.
    config.digest_beacon_every = 8;
    BuildStack(server, config);
    auto app = std::make_unique<zelos::ZelosApplicator>();
    app->set_metrics(server.metrics());
    // Through the app frame's workload tap, so the demo's /workload, /top/keys
    // and /top/clients surfaces have per-key attribution to show.
    server.RegisterApplicator(app.get(), zelos::ZelosKeyExtractor::Instance());
    server.RegisterHealthTarget(app.get());
    apps[server.id()] = std::move(app);
  });
  ClusterServer& server = cluster.server(0);

  // A short workload so every surface has something to show.
  zelos::ZelosClient client(server.top(), apps["server0"].get());
  server.CollectHealth();  // time-series baseline window
  const zelos::SessionId session = client.CreateSession();
  for (int i = 0; i < 16; ++i) {
    client.Create(session, "/demo" + std::to_string(i), "v");
  }
  for (int i = 0; i < 64; ++i) {
    client.SetData("/demo" + std::to_string(i % 16), "value" + std::to_string(i));
  }
  server.top()->Sync().Get();
  server.CollectHealth();  // close a window over the workload

  AdminServer admin{AdminEndpoint(&server)};
  if (!admin.Start()) {
    std::fprintf(stderr, "delosctl: demo admin server failed to bind\n");
    return 2;
  }
  std::fprintf(stderr, "[demo] single-server Zelos cluster on 127.0.0.1:%u\n", admin.port());
  std::string trace_arg = arg;
  if (command == "trace" && trace_arg.empty()) {
    trace_arg = std::to_string(tracer.last_trace_id());
  }
  const int rc = RunCommand("127.0.0.1", admin.port(), command, trace_arg, json);
  admin.Stop();
  cluster.server(0).Stop();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7331;
  bool demo = false;
  bool json = false;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (flag == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (flag == "--demo") {
      demo = true;
    } else if (flag == "--json") {
      json = true;
    } else if (flag == "--help" || flag == "-h") {
      PrintUsage();
      return 0;
    } else {
      break;  // first non-flag is the command
    }
  }
  if (i >= argc) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[i];
  const std::string arg = i + 1 < argc ? argv[i + 1] : "";
  if (demo) {
    return RunDemo(command, arg, json);
  }
  return RunCommand(host, port, command, arg, json);
}
