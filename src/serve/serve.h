// The always-on congestion observatory behind `afixp serve`.
//
// One daemon = one driver thread running fleet passes plus an HTTP server
// answering reads from the latest published epoch (docs/SERVING.md):
//
//   driver thread            HTTP workers (net/http.h)
//   ─────────────            ─────────────────────────
//   run_fleet pass p   ──►   GET /metrics, /api/v1/...
//     live folds per            pin store.current()
//     segment boundary          render from the pinned
//     publish epoch             epoch, lock-free
//   final fold + epoch
//   pass p+1 ...
//
// Determinism contract: each pass p runs the fleet with fault seed
// `fault_seed` for p = 1 (so pass 1 replays `afixp chaos` byte-for-byte)
// and a deterministic per-pass offset afterwards; the per-pass fleet
// registries are merged into the cumulative registry in pass order, so the
// shutdown metrics flush after K completed passes is byte-identical to a
// fresh `--rounds K` run -- regardless of whether K came from --rounds or
// from SIGTERM landing mid-pass (stop requests take effect at the next
// pass boundary; the in-flight pass always completes).  Served traffic
// never feeds back: readers touch only immutable snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fleet.h"
#include "net/http.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace ixp::serve {

struct ServeOptions {
  /// Campaigns to drive, one fleet pass at a time (spec order preserved).
  std::vector<analysis::VpSpec> specs;
  /// Per-campaign options.  on_progress/on_verdicts/metrics are owned by
  /// the daemon and must be left unset.
  analysis::CampaignOptions campaign;
  int jobs = 0;  ///< fleet worker budget (0 = IXP_JOBS, else hardware)
  /// Fault plan applied to every pass (nullptr = fault-free).  Pass 1 uses
  /// `fault_seed` unchanged -- `afixp chaos --seed S` equivalence -- and
  /// pass p differs by a fixed odd multiple of (p-1).
  const FaultPlan* fault_plan = nullptr;
  std::uint64_t fault_seed = 1;
  /// Fleet passes to run; 0 = run until request_stop()/SIGTERM.
  std::uint64_t rounds = 1;
  // HTTP surface.
  int port = 0;  ///< 0 = kernel-assigned; read back via port()
  int http_threads = 2;
  bool verbose = false;
  std::ostream* log = nullptr;  ///< status lines (nullptr = silent)
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions opt);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Starts the HTTP server and the campaign driver thread.
  bool start(std::string* error);
  /// Requests shutdown: the in-flight pass completes, its final epoch is
  /// published, then the driver exits.  Thread-safe; callable from tests
  /// concurrently with reads.
  void request_stop() { stop_.store(true, std::memory_order_release); }
  /// Waits for the driver to finish (all rounds done or stop requested),
  /// then drains and stops the HTTP server.  Returns the exit code (0 on
  /// a clean run).
  int wait();
  /// start() + wait() + a metrics flush to `metrics_out` when non-empty.
  int run(std::string* error, const std::string& metrics_out = "");

  /// Routes SIGTERM/SIGINT to request_stop() on this daemon (process-wide;
  /// the last daemon to install wins).
  void install_signal_handlers();

  [[nodiscard]] int port() const { return http_.port(); }
  /// Pins the current epoch (what a request handler does).
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const { return store_.current(); }
  /// Cumulative deterministic registry (passes merged in pass order).
  /// Stable only once wait() has returned.
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  /// One fleet result per completed pass, pass-major (stable once wait()
  /// returned).  Every entry keeps its wall_seconds, plan and metrics, but
  /// only the last keeps its per-VP `results` and `registry`: earlier
  /// passes are already folded into registry() and the snapshot, so a
  /// looping daemon does not hold every pass's results.
  [[nodiscard]] const std::vector<analysis::FleetResult>& passes() const { return passes_; }
  [[nodiscard]] std::uint64_t passes_completed() const {
    return passes_completed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t epochs_published() const { return store_.epochs_published(); }
  [[nodiscard]] const net::HttpServer& http() const { return http_; }

  /// The request handler (exposed so tests can exercise routing without a
  /// socket).  Pure function of (request, current snapshot).
  [[nodiscard]] net::HttpResponse handle(const net::HttpRequest& req) const;

  /// Endpoint dispatch table (path pattern + one-line description), the
  /// source of truth docs/SERVING.md is linted against (check_docs.sh).
  struct Endpoint {
    const char* pattern;
    const char* help;
  };
  static const std::vector<Endpoint>& endpoints();

 private:
  void drive();          ///< the driver thread body
  void run_pass(std::uint64_t pass);
  [[nodiscard]] bool stop_requested() const;
  void publish_epoch(bool final_pass);

  ServeOptions opt_;
  SnapshotBuilder builder_;
  SnapshotStore store_;
  net::HttpServer http_;
  std::thread driver_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> passes_completed_{0};
  bool started_ = false;
  int exit_code_ = 0;

  // Writer-side state (driver thread + campaign workers only).
  std::mutex metrics_mu_;
  std::string metrics_prom_;  ///< rendered registry text epochs embed
  obs::Registry registry_;    ///< cumulative across completed passes
  std::vector<analysis::FleetResult> passes_;
};

}  // namespace ixp::serve
