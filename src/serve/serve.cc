#include "serve/serve.h"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "obs/export.h"
#include "util/strings.h"

namespace ixp::serve {
namespace {

// SIGTERM/SIGINT route to the installed daemon's stop flag.  The handler
// body is one lock-free atomic load plus one atomic store -- both
// async-signal-safe.
std::atomic<ServeDaemon*> g_signal_daemon{nullptr};

void on_stop_signal(int) {
  ServeDaemon* d = g_signal_daemon.load(std::memory_order_acquire);
  if (d != nullptr) d->request_stop();
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions opt)
    : opt_(std::move(opt)),
      http_([this](const net::HttpRequest& r) { return handle(r); },
            [this] {
              net::HttpServer::Options o;
              o.port = static_cast<std::uint16_t>(opt_.port);
              o.threads = std::max(1, opt_.http_threads);
              return o;
            }()) {
  // Facility metadata is spec-static: install it once so every fold (live
  // or final) can tag links for the /api/v1/facilities/* aggregation.
  std::map<std::string, std::string> fmap;
  for (const analysis::VpSpec& spec : opt_.specs) {
    for (const analysis::NeighborSpec& n : spec.neighbors) {
      if (!n.facility.empty()) {
        fmap[spec.vp_name + "/" + std::to_string(n.asn)] = n.facility;
      }
    }
  }
  builder_.set_facilities(std::move(fmap));
}

ServeDaemon::~ServeDaemon() {
  request_stop();
  wait();
  ServeDaemon* self = this;
  g_signal_daemon.compare_exchange_strong(self, nullptr);
}

bool ServeDaemon::start(std::string* error) {
  if (started_) return true;
  if (!http_.start(error)) return false;
  driver_ = std::thread([this] { drive(); });
  started_ = true;
  return true;
}

int ServeDaemon::wait() {
  if (driver_.joinable()) driver_.join();
  http_.stop();  // drains in-flight reads before returning
  return exit_code_;
}

int ServeDaemon::run(std::string* error, const std::string& metrics_out) {
  if (!start(error)) return 1;
  const int rc = wait();
  if (!metrics_out.empty() && !obs::write_to_file(metrics_out, registry_)) {
    if (error != nullptr) *error = "cannot write " + metrics_out;
    return 1;
  }
  return rc;
}

void ServeDaemon::install_signal_handlers() {
  g_signal_daemon.store(this, std::memory_order_release);
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);
}

bool ServeDaemon::stop_requested() const {
  return stop_.load(std::memory_order_acquire);
}

void ServeDaemon::publish_epoch(bool final_pass) {
  std::string prom;
  {
    const std::lock_guard<std::mutex> lock(metrics_mu_);
    prom = metrics_prom_;
  }
  store_.publish(builder_.build(std::move(prom), final_pass));
}

void ServeDaemon::run_pass(std::uint64_t pass) {
  builder_.begin_pass(pass);
  analysis::FleetOptions fopt;
  fopt.campaign = opt_.campaign;
  fopt.campaign.on_verdicts = [this](const analysis::LiveVerdictBatch& b) {
    builder_.fold_live(b.vp_name, b.ixp, b);
    publish_epoch(/*final_pass=*/false);
  };
  fopt.jobs = opt_.jobs;
  fopt.fault_plan = opt_.fault_plan;
  // Pass 1 replays `afixp chaos --seed S` byte-for-byte; later passes take
  // a deterministic per-pass offset.  The mix constant differs from the
  // fleet's per-VP stride so pass p / VP i never collides with pass p' /
  // VP i' (fleet.cc uses 0x9e3779b97f4a7c15).
  fopt.fault_seed = pass == 1 ? opt_.fault_seed
                              : opt_.fault_seed ^ (pass * 0xbf58476d1ce4e5b9ULL);
  analysis::FleetResult fleet = analysis::run_fleet(opt_.specs, fopt);
  for (std::size_t i = 0; i < opt_.specs.size() && i < fleet.results.size(); ++i) {
    builder_.fold_final(opt_.specs[i].vp_name, opt_.specs[i].ixp.name, fleet.results[i]);
  }
  {
    const std::lock_guard<std::mutex> lock(metrics_mu_);
    registry_.merge_from(fleet.registry);
    std::ostringstream prom;
    obs::write_prometheus(prom, registry_);
    metrics_prom_ = prom.str();
  }
  if (!passes_.empty()) {
    passes_.back().results = {};
    passes_.back().registry = obs::Registry{};
  }
  passes_.push_back(std::move(fleet));
  publish_epoch(/*final_pass=*/true);
  passes_completed_.fetch_add(1, std::memory_order_release);
}

void ServeDaemon::drive() {
  std::uint64_t pass = 1;
  while (!stop_requested() && (opt_.rounds == 0 || pass <= opt_.rounds)) {
    if (opt_.log != nullptr) {
      *opt_.log << "serve: pass " << pass << " starting (epoch "
                << snapshot()->epoch << ")" << std::endl;
    }
    run_pass(pass);
    if (opt_.log != nullptr) {
      const auto snap = snapshot();
      *opt_.log << "serve: pass " << pass << " complete; epoch " << snap->epoch
                << ", " << snap->links.size() << " links, "
                << http_.requests_served() << " requests served" << std::endl;
    }
    ++pass;
  }
}

net::HttpResponse ServeDaemon::handle(const net::HttpRequest& req) const {
  net::HttpResponse resp;
  if (req.method != "GET") {
    resp.status = 405;
    resp.content_type = "text/plain";
    resp.body = "only GET is supported\n";
    return resp;
  }
  // Pin the current epoch once; everything below reads the pinned object.
  const std::shared_ptr<const Snapshot> snap = store_.current();
  const std::string& path = req.path;

  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = snap->metrics_prom;
    return resp;
  }
  if (path == "/healthz") {
    resp.body = strformat(
        "{\"status\":\"ok\",\"epoch\":%llu,\"pass\":%llu,\"final\":%s,"
        "\"links\":%zu,\"passes_completed\":%llu,\"epochs_published\":%llu}",
        static_cast<unsigned long long>(snap->epoch),
        static_cast<unsigned long long>(snap->pass),
        snap->final_pass ? "true" : "false", snap->links.size(),
        static_cast<unsigned long long>(passes_completed()),
        static_cast<unsigned long long>(store_.epochs_published()));
    return resp;
  }
  if (path == "/api/v1/links/top") {
    long n = std::strtol(req.query_param("n", "20").c_str(), nullptr, 10);
    n = std::clamp<long>(n, 1, 100000);
    if (static_cast<std::size_t>(n) == Snapshot::kDefaultTopN &&
        !snap->links_top_default.empty()) {
      resp.body = snap->links_top_default;  // pre-rendered at freeze time
    } else {
      resp.body = render_links_top(*snap, static_cast<std::size_t>(n));
    }
    return resp;
  }
  if (path == "/api/v1/facilities/top") {
    long n = std::strtol(req.query_param("n", "20").c_str(), nullptr, 10);
    n = std::clamp<long>(n, 1, 100000);
    if (static_cast<std::size_t>(n) == Snapshot::kDefaultTopN &&
        !snap->facilities_top_default.empty()) {
      resp.body = snap->facilities_top_default;  // pre-rendered at freeze time
    } else {
      resp.body = render_facilities_top(*snap, static_cast<std::size_t>(n));
    }
    return resp;
  }
  const auto route = [&](std::string_view prefix, std::string_view suffix,
                         std::string_view* id) {
    if (path.size() <= prefix.size() + suffix.size()) return false;
    if (path.compare(0, prefix.size(), prefix) != 0) return false;
    if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) return false;
    *id = std::string_view(path).substr(prefix.size(),
                                        path.size() - prefix.size() - suffix.size());
    return !id->empty() && id->find('/') == std::string_view::npos;
  };
  std::string_view id;
  if (route("/api/v1/ixps/", "/summary", &id)) {
    if (render_ixp_summary(*snap, id, &resp.body)) return resp;
    resp.status = 404;
    resp.body = "{\"error\":\"unknown ixp\"}";
    return resp;
  }
  if (route("/api/v1/links/", "/episodes", &id)) {
    if (render_link_episodes(*snap, id, &resp.body)) return resp;
    resp.status = 404;
    resp.body = "{\"error\":\"unknown link\"}";
    return resp;
  }
  if (route("/api/v1/facilities/", "/summary", &id)) {
    if (render_facility_summary(*snap, id, &resp.body)) return resp;
    resp.status = 404;
    resp.body = "{\"error\":\"unknown facility\"}";
    return resp;
  }
  resp.status = 404;
  resp.body = "{\"error\":\"unknown endpoint\"}";
  return resp;
}

const std::vector<ServeDaemon::Endpoint>& ServeDaemon::endpoints() {
  // The dispatch table handle() implements, in documentation order.
  // check_docs.sh lints docs/SERVING.md's endpoint table against these
  // patterns (two-way), so adding a route here without documenting it --
  // or vice versa -- fails CI.
  static const std::vector<Endpoint> kEndpoints = {
      {"/metrics", "Prometheus text exposition of the latest epoch's campaign registry"},
      {"/healthz", "daemon liveness: current epoch, pass, link count"},
      {"/api/v1/links/top", "links ranked by congestion evidence (?n=K, default 20)"},
      {"/api/v1/ixps/<id>/summary", "one IXP's aggregate congestion state"},
      {"/api/v1/links/<id>/episodes", "one link's level-shift episode list"},
      {"/api/v1/facilities/top", "colocation facilities ranked by correlated disruption (?n=K)"},
      {"/api/v1/facilities/<id>/summary", "one facility's aggregate and member links"},
  };
  return kEndpoints;
}

}  // namespace ixp::serve
