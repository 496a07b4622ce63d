// Admin endpoint tests: every route exercised in-process (no sockets), then
// the HTTP server itself over a real loopback connection.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/zelos/zelos.h"
#include "src/common/trace.h"
#include "src/core/cluster.h"
#include "src/engines/digest_engine.h"
#include "src/engines/stacks.h"
#include "src/net/admin_server.h"

namespace delos {
namespace {

// One Zelos server with the production-shaped stack and a short committed
// workload, so every admin surface has real content.
class AdminServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Cluster::Options options;
    options.num_servers = 1;
    options.base_options.tracer = &tracer_;
    cluster_ = std::make_unique<Cluster>(options, [&](ClusterServer& server) {
      BuildStack(server, ZelosStackConfig(nullptr));
      auto app = std::make_unique<zelos::ZelosApplicator>();
      app->set_metrics(server.metrics());
      server.RegisterApplicator(app.get());
      server.RegisterHealthTarget(app.get());
      apps_[server.id()] = std::move(app);
    });
    client_ = std::make_unique<zelos::ZelosClient>(cluster_->server(0).top(),
                                                   apps_["server0"].get());
    server().CollectHealth();  // time-series baseline
    session_ = client_->CreateSession();
    for (int i = 0; i < 8; ++i) {
      client_->Create(session_, "/n" + std::to_string(i), "v");
    }
    server().top()->Sync().Get();
    server().CollectHealth();  // close a window over the workload
  }

  ClusterServer& server() { return cluster_->server(0); }

  Tracer tracer_;
  std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> apps_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<zelos::ZelosClient> client_;
  zelos::SessionId session_ = 0;
};

TEST_F(AdminServerTest, MetricsRouteServesPrometheusExposition) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("# TYPE base_apply_records counter"), std::string::npos);
  EXPECT_NE(response.body.find("zelos_open_sessions"), std::string::npos);
}

TEST_F(AdminServerTest, HealthzReportsEveryComponentOk) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"state\":\"OK\""), std::string::npos);
  EXPECT_NE(response.body.find("\"component\":\"base\""), std::string::npos);
  EXPECT_NE(response.body.find("\"component\":\"zelos\""), std::string::npos);
  EXPECT_NE(response.body.find("\"component\":\"batching\""), std::string::npos);
}

// A wedged component flips /healthz to 503 — the contract a load balancer or
// Kubernetes probe relies on.
TEST_F(AdminServerTest, HealthzReturns503WhenAnyComponentIsUnhealthy) {
  class WedgedTarget : public IHealthCheckable {
   public:
    HealthReport HealthCheck() const override {
      return HealthReport{"wedged", HealthState::kUnhealthy, "stuck", 1};
    }
  };
  WedgedTarget wedged;
  server().RegisterHealthTarget(&wedged);
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("\"state\":\"UNHEALTHY\""), std::string::npos);
  EXPECT_NE(response.body.find("wedged"), std::string::npos);
  server().watchdog()->RemoveTarget(&wedged);
}

TEST_F(AdminServerTest, StatusRouteRendersTheComponentTable) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/status");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("server server0: OK"), std::string::npos);
  EXPECT_NE(response.body.find("component"), std::string::npos);
  EXPECT_NE(response.body.find("base"), std::string::npos);
  EXPECT_NE(response.body.find("applied="), std::string::npos);
}

TEST_F(AdminServerTest, StackRouteRendersEnginesBottomUp) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/stack");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_NE(response.body.find("\"server\":\"server0\""), std::string::npos);
  EXPECT_NE(response.body.find("\"applied_position\""), std::string::npos);
  // base must come before batching (bottom-up order).
  const size_t base_at = response.body.find("\"name\":\"base\"");
  const size_t batching_at = response.body.find("\"name\":\"batching\"");
  ASSERT_NE(base_at, std::string::npos);
  ASSERT_NE(batching_at, std::string::npos);
  EXPECT_LT(base_at, batching_at);
}

TEST_F(AdminServerTest, TopAndSeriesServeTheTimeSeriesRing) {
  AdminEndpoint endpoint(&server());
  const AdminResponse top = endpoint.Handle("/top");
  EXPECT_EQ(top.status, 200);
  EXPECT_NE(top.body.find("rate/s"), std::string::npos);
  EXPECT_NE(top.body.find("base.apply.records"), std::string::npos);
  const AdminResponse series = endpoint.Handle("/series");
  EXPECT_EQ(series.status, 200);
  EXPECT_EQ(series.content_type, "application/json");
  EXPECT_NE(series.body.find("\"windows\""), std::string::npos);
}

TEST_F(AdminServerTest, FlightAndTraceRoutesServeTheRecorders) {
  AdminEndpoint endpoint(&server());
  const AdminResponse flight = endpoint.Handle("/flight");
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.body.find("append"), std::string::npos);

  const uint64_t trace_id = tracer_.last_trace_id();
  ASSERT_NE(trace_id, 0u);
  const AdminResponse trace = endpoint.Handle("/trace/" + std::to_string(trace_id));
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("trace " + std::to_string(trace_id)), std::string::npos);
  EXPECT_NE(trace.body.find("base.append"), std::string::npos);
}

TEST_F(AdminServerTest, LatencyRouteRendersTheStageTable) {
  AdminEndpoint endpoint(&server());
  const AdminResponse response = endpoint.Handle("/latency");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("latency attribution: server server0"), std::string::npos);
  EXPECT_NE(response.body.find("e2e"), std::string::npos);
  EXPECT_NE(response.body.find("base.append"), std::string::npos);
  // The conservation footer: attributed + unattributed == end-to-end.
  EXPECT_NE(response.body.find("100.0% of end-to-end"), std::string::npos);
}

TEST_F(AdminServerTest, SlowRoutesServeExemplars) {
  AdminEndpoint endpoint(&server());
  const AdminResponse list = endpoint.Handle("/slow");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("slow traces:"), std::string::npos);
  EXPECT_EQ(endpoint.Handle("/slow/999999").status, 404);
  EXPECT_EQ(endpoint.Handle("/slow/junk").status, 404);
}

TEST_F(AdminServerTest, LatencyRoutesReturn404WhenAttributionIsDisabled) {
  Tracer tracer;
  Cluster::Options options;
  options.num_servers = 1;
  options.base_options.tracer = &tracer;
  options.base_options.latency_attribution = false;
  std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> apps;
  Cluster cluster(options, [&](ClusterServer& server) {
    BuildStack(server, ZelosStackConfig(nullptr));
    auto app = std::make_unique<zelos::ZelosApplicator>();
    server.RegisterApplicator(app.get());
    apps[server.id()] = std::move(app);
  });
  AdminEndpoint endpoint(&cluster.server(0));
  EXPECT_EQ(endpoint.Handle("/latency").status, 404);
  EXPECT_EQ(endpoint.Handle("/slow").status, 404);
  cluster.server(0).Stop();
}

TEST_F(AdminServerTest, FormatJsonSwitchesRoutesToMachineReadableBodies) {
  AdminEndpoint endpoint(&server());
  const AdminResponse metrics = endpoint.Handle("/metrics?format=json");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "application/json");
  EXPECT_NE(metrics.body.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.body.find("\"histograms\""), std::string::npos);

  const AdminResponse status = endpoint.Handle("/status?format=json");
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"server\":\"server0\""), std::string::npos);
  EXPECT_NE(status.body.find("\"components\""), std::string::npos);

  const AdminResponse top = endpoint.Handle("/top?format=json");
  EXPECT_EQ(top.status, 200);
  EXPECT_NE(top.body.find("\"windows\""), std::string::npos);

  const AdminResponse latency = endpoint.Handle("/latency?format=json");
  EXPECT_EQ(latency.status, 200);
  EXPECT_NE(latency.body.find("\"stages\""), std::string::npos);

  const AdminResponse slow = endpoint.Handle("/slow?format=json");
  EXPECT_EQ(slow.status, 200);
  EXPECT_NE(slow.body.find("\"traces\""), std::string::npos);

  // Unknown query parameters stay ignored alongside format=json.
  EXPECT_EQ(endpoint.Handle("/metrics?scrape=1&format=json").status, 200);
}

// Every dual-format route serves its plane's text render as is and, with
// ?format=json, the plane's JSON render plus a newline.
TEST_F(AdminServerTest, DualFormatRoutesServeThePlaneRenders) {
  LatencyAttributor* latency = server().latency();
  WorkloadAttributor* workload = server().workload();
  auto* digest = dynamic_cast<DigestEngine*>(server().FindEngine("digest"));
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(workload, nullptr);
  ASSERT_NE(digest, nullptr);
  // One errored proposal: captured as a slow exemplar for /slow/<id>.
  constexpr uint64_t kTrace = uint64_t{1} << 40;
  latency->OnSpan(TraceSpan{kTrace, "base.append", "server0", 10, 20});
  latency->OnSpan(TraceSpan{kTrace, "client.propose", "server0", 0, 30, /*failed=*/true});
  const std::string slow_path = "/slow/" + std::to_string(kTrace);

  struct Route {
    std::string path;
    std::string text_type;
    std::function<std::string()> text;
    std::function<std::string()> json;
  };
  const std::string kText = "text/plain; charset=utf-8";
  const std::vector<Route> routes = {
      {"/metrics", "text/plain; version=0.0.4; charset=utf-8",
       [&] { return server().metrics()->RenderPrometheus(); },
       [&] { return server().metrics()->RenderJson(); }},
      {"/top", kText, [&] { return server().series()->RenderTable(10); },
       [&] { return server().series()->RenderJson(10); }},
      {"/latency", kText, [&] { return latency->RenderLatency(); },
       [&] { return latency->RenderLatencyJson(); }},
      {"/slow", kText, [&] { return latency->RenderSlowList(); },
       [&] { return latency->RenderSlowListJson(); }},
      {slow_path, kText, [&] { return latency->RenderSlowDetail(kTrace).value_or("-"); },
       [&] { return latency->RenderSlowDetailJson(kTrace).value_or("-"); }},
      {"/workload", kText, [&] { return workload->RenderWorkload(); },
       [&] { return workload->RenderWorkloadJson(); }},
      {"/top/keys", kText, [&] { return workload->RenderTopKeys(); },
       [&] { return workload->RenderTopKeysJson(); }},
      {"/top/clients", kText, [&] { return workload->RenderTopClients(); },
       [&] { return workload->RenderTopClientsJson(); }},
      {"/digest", kText, [&] { return digest->Render(); },
       [&] { return digest->RenderJson(); }},
      {"/divergence", kText, [&] { return digest->tracker()->Render(); },
       [&] { return digest->tracker()->RenderJson(); }},
  };
  AdminEndpoint endpoint(&server());
  for (const Route& route : routes) {
    SCOPED_TRACE(route.path);
    const AdminResponse text = endpoint.Handle(route.path);
    EXPECT_EQ(text.status, 200);
    EXPECT_EQ(text.content_type, route.text_type);
    EXPECT_EQ(text.body, route.text());
    const AdminResponse json = endpoint.Handle(route.path + "?format=json");
    EXPECT_EQ(json.status, 200);
    EXPECT_EQ(json.content_type, "application/json");
    EXPECT_EQ(json.body, route.json() + "\n");
  }
  for (const char* format : {"", "?format=json"}) {
    const AdminResponse missing = endpoint.Handle(std::string("/slow/7") + format);
    EXPECT_EQ(missing.status, 404);
    EXPECT_EQ(missing.content_type, "text/plain; charset=utf-8");
    EXPECT_EQ(missing.body, "no slow trace 7\n");
  }
}

// With every optional plane off, each of its routes answers 404 with the
// plane's "... is not enabled" message in either format.
TEST_F(AdminServerTest, DisabledPlaneRoutesReturn404WithTheirMessage) {
  Cluster::Options options;
  options.num_servers = 1;
  options.base_options.latency_attribution = false;
  options.base_options.workload_attribution = false;
  std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> apps;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = ZelosStackConfig(nullptr);
    config.digest = false;
    BuildStack(server, config);
    auto app = std::make_unique<zelos::ZelosApplicator>();
    server.RegisterApplicator(app.get());
    apps[server.id()] = std::move(app);
  });
  const std::vector<std::pair<std::string, std::string>> routes = {
      {"/latency", "latency attribution is not enabled\n"},
      {"/slow", "latency attribution is not enabled\n"},
      {"/slow/7", "latency attribution is not enabled\n"},
      {"/workload", "workload attribution is not enabled\n"},
      {"/top/keys", "workload attribution is not enabled\n"},
      {"/top/clients", "workload attribution is not enabled\n"},
      {"/digest", "digest beacons are not enabled\n"},
      {"/divergence", "digest beacons are not enabled\n"},
      {"/trace/7", "tracing is not enabled\n"},
  };
  AdminEndpoint endpoint(&cluster.server(0));
  for (const auto& [path, message] : routes) {
    for (const char* format : {"", "?format=json"}) {
      SCOPED_TRACE(path + format);
      const AdminResponse response = endpoint.Handle(path + format);
      EXPECT_EQ(response.status, 404);
      EXPECT_EQ(response.content_type, "text/plain; charset=utf-8");
      EXPECT_EQ(response.body, message);
    }
  }
  cluster.server(0).Stop();
}

TEST_F(AdminServerTest, UnknownAndMalformedPathsReturn404) {
  AdminEndpoint endpoint(&server());
  EXPECT_EQ(endpoint.Handle("/nope").status, 404);
  EXPECT_EQ(endpoint.Handle("/trace/abc").status, 404);
  EXPECT_EQ(endpoint.Handle("/trace/12junk").status, 404);
  EXPECT_EQ(endpoint.Handle("").status, 404);
}

TEST_F(AdminServerTest, QueryStringsAreIgnored) {
  AdminEndpoint endpoint(&server());
  EXPECT_EQ(endpoint.Handle("/metrics?scrape=1").status, 200);
  EXPECT_EQ(endpoint.Handle("/healthz?verbose=true").status, 200);
}

TEST_F(AdminServerTest, HttpServerServesRoutesOverLoopback) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  ASSERT_NE(admin.port(), 0);  // ephemeral port was bound and recovered

  int status = 0;
  std::string body;
  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"state\":\"OK\""), std::string::npos);

  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("base_apply_records"), std::string::npos);

  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/nope", &status, &body));
  EXPECT_EQ(status, 404);

  // Serial requests on fresh connections (Connection: close semantics).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/stack", &status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("\"name\":\"base\""), std::string::npos);
  }
  admin.Stop();
  // After Stop the port no longer answers.
  EXPECT_FALSE(AdminHttpGet("127.0.0.1", admin.port(), "/healthz", &status, &body));
}

// Sends raw bytes to the admin server and returns everything it answered
// (empty on connect failure). Shuts down the write side so the server's
// header read loop terminates without waiting out its receive timeout.
std::string RawAdminRequest(uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(AdminServerTest, MalformedRequestLineReturns400) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  // No CRLF at all: not even a request line to parse.
  EXPECT_NE(RawAdminRequest(admin.port(), "complete garbage").find("HTTP/1.1 400"),
            std::string::npos);
  // A request line with a method but no path.
  EXPECT_NE(RawAdminRequest(admin.port(), "GET\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  // A path that does not start with '/'.
  EXPECT_NE(RawAdminRequest(admin.port(), "GET metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  // Wrong method on a well-formed line.
  EXPECT_NE(RawAdminRequest(admin.port(), "POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  admin.Stop();
}

TEST_F(AdminServerTest, OversizedRequestReturns431) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  // 20 KB of headers with no terminating blank line: the server must stop
  // buffering at its 16 KB bound and reject, not read forever.
  std::string huge = "GET /metrics HTTP/1.1\r\n";
  huge += "X-Padding: " + std::string(20 * 1024, 'a') + "\r\n";
  const std::string response = RawAdminRequest(admin.port(), huge);
  EXPECT_NE(response.find("HTTP/1.1 431"), std::string::npos);
  EXPECT_NE(response.find("request too large"), std::string::npos);
  admin.Stop();
}

TEST_F(AdminServerTest, UnknownRouteOverHttpReturns404) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  int status = 0;
  std::string body;
  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/definitely-not-a-route", &status,
                           &body));
  EXPECT_EQ(status, 404);
  admin.Stop();
}

TEST_F(AdminServerTest, ServerRestartsCleanly) {
  AdminServer admin{AdminEndpoint(&server())};
  ASSERT_TRUE(admin.Start());
  const uint16_t first_port = admin.port();
  admin.Stop();
  ASSERT_TRUE(admin.Start());  // rebind (possibly a different ephemeral port)
  int status = 0;
  std::string body;
  ASSERT_TRUE(AdminHttpGet("127.0.0.1", admin.port(), "/status", &status, &body));
  EXPECT_EQ(status, 200);
  admin.Stop();
  (void)first_port;
}

}  // namespace
}  // namespace delos
