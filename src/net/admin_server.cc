#include "src/net/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "src/common/json.h"
#include "src/common/thread_name.h"
#include "src/engines/digest_engine.h"

namespace delos {

namespace {

constexpr char kText[] = "text/plain; charset=utf-8";

AdminResponse NotFound(const std::string& path) {
  return AdminResponse{404, kText, "no route: " + path + "\n"};
}

// The 404 of a route whose plane this server runs without.
AdminResponse NotEnabled(const char* message) { return AdminResponse{404, kText, message}; }

// A 200 carrying one render: the JSON render plus a newline, or the text
// render as is.
AdminResponse Reply(bool json, std::string body, const char* text_type = kText) {
  if (json) {
    return AdminResponse{200, "application/json", std::move(body) + "\n"};
  }
  return AdminResponse{200, text_type, std::move(body)};
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

// Parses "/slow/<id>"-style suffixes. Returns false unless the whole suffix
// is a decimal trace id.
bool ParseTraceId(const std::string& id_str, uint64_t* id) {
  char* end = nullptr;
  *id = std::strtoull(id_str.c_str(), &end, 10);
  return end != id_str.c_str() && *end == '\0';
}

constexpr char kNoLatency[] = "latency attribution is not enabled\n";
constexpr char kNoWorkload[] = "workload attribution is not enabled\n";
constexpr char kNoDigest[] = "digest beacons are not enabled\n";

// A dual-format route over one plane: the plane's 404 when the server runs
// without it, else its JSON or text render.
template <typename Plane>
AdminResponse PlaneReply(const Plane* plane, const char* not_enabled, bool json,
                         std::string (Plane::*text)() const,
                         std::string (Plane::*as_json)() const) {
  if (plane == nullptr) {
    return NotEnabled(not_enabled);
  }
  return Reply(json, json ? (plane->*as_json)() : (plane->*text)());
}

DigestEngine* Digest(ClusterServer& server) {
  return dynamic_cast<DigestEngine*>(server.FindEngine("digest"));
}

AdminResponse Healthz(ClusterServer& server, uint64_t, bool) {
  // One watchdog pass per probe: the verdict is as fresh as the request,
  // whether or not the background cadence thread is running.
  const std::vector<HealthReport> reports = server.CollectHealth();
  const int status = AggregateHealth(reports) == HealthState::kUnhealthy ? 503 : 200;
  return AdminResponse{status, "application/json", RenderHealthJson(reports) + "\n"};
}

AdminResponse Status(ClusterServer& server, uint64_t, bool json) {
  const std::vector<HealthReport> reports = server.CollectHealth();
  BaseEngine* base = server.base();
  if (json) {
    JsonWriter body;
    body.BeginObject()
        .Key("server").String(server.id())
        .Key("aggregate").String(HealthStateName(AggregateHealth(reports)))
        .Key("applied_position").Int(base->applied_position())
        .Key("durable_position").Int(base->durable_position())
        .Key("apply_records").Int(base->apply_records())
        .Key("apply_batches").Int(base->apply_batches())
        .Key("components").Raw(RenderHealthJson(reports))
        .EndObject();
    return Reply(true, body.str());
  }
  std::ostringstream out;
  out << "server " << server.id() << ": " << HealthStateName(AggregateHealth(reports)) << "\n";
  out << "  applied=" << base->applied_position() << " durable=" << base->durable_position()
      << " records=" << base->apply_records() << " batches=" << base->apply_batches() << "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-18s %-10s %s\n", "component", "state", "reason");
  out << line;
  for (const HealthReport& report : reports) {
    std::snprintf(line, sizeof(line), "  %-18s %-10s %s\n", report.component.c_str(),
                  HealthStateName(report.state),
                  report.reason.empty() ? "-" : report.reason.c_str());
    out << line;
  }
  return Reply(false, out.str());
}

AdminResponse Stack(ClusterServer& server, uint64_t, bool) {
  BaseEngine* base = server.base();
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(server.id())
      .Key("applied_position").Int(base->applied_position())
      .Key("durable_position").Int(base->durable_position())
      .Key("apply_records").Int(base->apply_records())
      .Key("apply_batches").Int(base->apply_batches())
      .Key("apply_busy_micros").Int(base->apply_busy_micros())
      .Key("stack").BeginArray();
  auto engine_row = [&](const std::string& name, bool enabled, const HealthReport& health) {
    json.BeginObject()
        .Key("name").String(name)
        .Key("enabled").Bool(enabled)
        .Key("health").String(HealthStateName(health.state))
        .Key("reason").String(health.reason)
        .EndObject();
  };
  // Bottom-up, base first — the order entries flow on the apply path.
  engine_row("base", true, base->HealthCheck());
  for (StackableEngine* engine : server.engines()) {
    engine_row(engine->name(), engine->enabled(), engine->HealthCheck());
  }
  json.EndArray().EndObject();
  return Reply(true, json.str());
}

// One admin route. A prefix route ("/slow/") takes the decimal trace id
// that follows its path; an exact route gets id 0.
struct Route {
  const char* path;
  bool prefix;
  AdminResponse (*handle)(ClusterServer& server, uint64_t id, bool json);
};

constexpr Route kRoutes[] = {
    {"/metrics", false,
     [](ClusterServer& server, uint64_t, bool json) {
       MetricsRegistry* metrics = server.metrics();
       return Reply(json, json ? metrics->RenderJson() : metrics->RenderPrometheus(),
                    "text/plain; version=0.0.4; charset=utf-8");
     }},
    {"/healthz", false, Healthz},
    {"/status", false, Status},
    {"/", false, Status},
    {"/stack", false, Stack},
    {"/top", false,
     [](ClusterServer& server, uint64_t, bool json) {
       TimeSeriesStore* series = server.series();
       return Reply(json, json ? series->RenderJson(10) : series->RenderTable(10));
     }},
    {"/series", false,
     [](ClusterServer& server, uint64_t, bool) {
       return Reply(true, server.series()->RenderJson());
     }},
    {"/flight", false,
     [](ClusterServer& server, uint64_t, bool) {
       return Reply(false, server.flight_recorder()->Dump());
     }},
    {"/trace/", true,
     [](ClusterServer& server, uint64_t id, bool) {
       Tracer* tracer = server.tracer();
       if (tracer == nullptr) {
         return NotEnabled("tracing is not enabled\n");
       }
       return Reply(false, tracer->Render(id));
     }},
    {"/latency", false,
     [](ClusterServer& server, uint64_t, bool json) {
       return PlaneReply(server.latency(), kNoLatency, json, &LatencyAttributor::RenderLatency,
                         &LatencyAttributor::RenderLatencyJson);
     }},
    {"/slow", false,
     [](ClusterServer& server, uint64_t, bool json) {
       return PlaneReply(server.latency(), kNoLatency, json, &LatencyAttributor::RenderSlowList,
                         &LatencyAttributor::RenderSlowListJson);
     }},
    {"/slow/", true,
     [](ClusterServer& server, uint64_t id, bool json) {
       LatencyAttributor* latency = server.latency();
       if (latency == nullptr) {
         return NotEnabled(kNoLatency);
       }
       std::optional<std::string> body =
           json ? latency->RenderSlowDetailJson(id) : latency->RenderSlowDetail(id);
       if (!body.has_value()) {
         return AdminResponse{404, kText, "no slow trace " + std::to_string(id) + "\n"};
       }
       return Reply(json, std::move(*body));
     }},
    {"/workload", false,
     [](ClusterServer& server, uint64_t, bool json) {
       return PlaneReply(server.workload(), kNoWorkload, json,
                         &WorkloadAttributor::RenderWorkload,
                         &WorkloadAttributor::RenderWorkloadJson);
     }},
    {"/top/keys", false,
     [](ClusterServer& server, uint64_t, bool json) {
       return PlaneReply(server.workload(), kNoWorkload, json, &WorkloadAttributor::RenderTopKeys,
                         &WorkloadAttributor::RenderTopKeysJson);
     }},
    {"/top/clients", false,
     [](ClusterServer& server, uint64_t, bool json) {
       return PlaneReply(server.workload(), kNoWorkload, json,
                         &WorkloadAttributor::RenderTopClients,
                         &WorkloadAttributor::RenderTopClientsJson);
     }},
    {"/digest", false,
     [](ClusterServer& server, uint64_t, bool json) {
       return PlaneReply(Digest(server), kNoDigest, json, &DigestEngine::Render,
                         &DigestEngine::RenderJson);
     }},
    {"/divergence", false,
     [](ClusterServer& server, uint64_t, bool json) {
       DigestEngine* digest = Digest(server);
       if (digest == nullptr) {
         return NotEnabled(kNoDigest);
       }
       const DivergenceTracker* tracker = digest->tracker();
       return Reply(json, json ? tracker->RenderJson() : tracker->Render());
     }},
};

}  // namespace

AdminEndpoint::AdminEndpoint(ClusterServer* server) : server_(server) {}

AdminResponse AdminEndpoint::Handle(const std::string& raw_path) const {
  std::string path = raw_path;
  bool json = false;
  const size_t query = path.find('?');
  if (query != std::string::npos) {
    const std::string query_string = path.substr(query + 1);
    path.resize(query);
    // &-separated parameters; the only one recognized today.
    json = ("&" + query_string + "&").find("&format=json&") != std::string::npos;
  }
  for (const Route& route : kRoutes) {
    if (!route.prefix && path == route.path) {
      return route.handle(*server_, 0, json);
    }
    if (route.prefix && path.rfind(route.path, 0) == 0) {
      uint64_t id = 0;
      if (!ParseTraceId(path.substr(std::strlen(route.path)), &id)) {
        return NotFound(path);
      }
      return route.handle(*server_, id, json);
    }
  }
  return NotFound(path);
}

AdminServer::AdminServer(AdminEndpoint endpoint, Options options)
    : endpoint_(std::move(endpoint)), options_(std::move(options)) {}

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Start() {
  if (listen_fd_ >= 0) {
    return true;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  shutdown_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    SetCurrentThreadName("admin");
    ServeLoopMain();
  });
  return true;
}

void AdminServer::Stop() {
  if (listen_fd_ < 0) {
    return;
  }
  shutdown_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AdminServer::ServeLoopMain() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void AdminServer::HandleConnection(int fd) {
  // Bound the read: an admin request is one short GET line plus headers.
  timeval timeout;
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  constexpr size_t kMaxRequestBytes = 16 * 1024;
  std::string request;
  char buffer[2048];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    request.append(buffer, static_cast<size_t>(n));
  }

  AdminResponse response;
  const size_t line_end = request.find("\r\n");
  if (request.size() >= kMaxRequestBytes &&
      request.find("\r\n\r\n") == std::string::npos) {
    // The client is still streaming headers past our bound: reject rather
    // than buffer without limit.
    response = AdminResponse{431, "text/plain; charset=utf-8", "request too large\n"};
  } else if (line_end == std::string::npos) {
    if (request.empty()) {
      return;  // client connected and went away; nothing to answer
    }
    response = AdminResponse{400, "text/plain; charset=utf-8", "malformed request line\n"};
  } else {
    std::istringstream line(request.substr(0, line_end));
    std::string method;
    std::string path;
    line >> method >> path;
    if (method.empty() || path.empty() || path[0] != '/') {
      response = AdminResponse{400, "text/plain; charset=utf-8", "malformed request line\n"};
    } else if (method != "GET") {
      response = AdminResponse{405, "text/plain; charset=utf-8", "only GET is supported\n"};
    } else {
      response = endpoint_.Handle(path);
    }
  }
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << " " << StatusText(response.status) << "\r\n"
      << "Content-Type: " << response.content_type << "\r\n"
      << "Content-Length: " << response.body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << response.body;
  const std::string wire = out.str();
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
}

bool AdminHttpGet(const std::string& host, uint16_t port, const std::string& path, int* status,
                  std::string* body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t line_end = response.find("\r\n");
  const size_t header_end = response.find("\r\n\r\n");
  if (line_end == std::string::npos || header_end == std::string::npos) {
    return false;
  }
  // "HTTP/1.1 200 OK"
  std::istringstream line(response.substr(0, line_end));
  std::string version;
  int code = 0;
  line >> version >> code;
  if (code == 0) {
    return false;
  }
  if (status != nullptr) {
    *status = code;
  }
  if (body != nullptr) {
    *body = response.substr(header_end + 4);
  }
  return true;
}

}  // namespace delos
