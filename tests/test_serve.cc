// The serving layer's concurrency + soak battery (ISSUE 9):
//   * HTTP parser hardening -- warts-lite-style fuzz sweep: every
//     truncation and single-byte corruption of valid requests parses to a
//     clean verdict, never a crash; framing limits map to specific 4xx.
//   * Live-server malformed-input tests: hostile bytes on a real socket
//     get a 4xx and a close, with bounded buffering.
//   * Snapshot isolation -- N writer epochs x M reader threads: a pinned
//     epoch renders byte-identical JSON no matter how many epochs are
//     published concurrently (the TSan target of check_sanitize_thread).
//   * Chaos-under-load -- `afixp serve` under the full-calendar fault
//     plan, queried while running, reproduces the batch chaos oracle
//     exactly: serving must not perturb detection.
//   * Deterministic shutdown -- SIGTERM mid-flight drains reads, publishes
//     the final epoch, exits 0, and flushes metrics byte-identical to a
//     --rounds-bounded run.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/africa.h"
#include "analysis/chaos.h"
#include "analysis/fleet.h"
#include "gtest/gtest.h"
#include "net/http.h"
#include "obs/export.h"
#include "serve/serve.h"
#include "serve/snapshot.h"
#include "util/fault_plan.h"

namespace {

using namespace ixp;
using namespace ixp::net;
using namespace ixp::serve;

// Sanitizer and coverage (-O0) builds run the heavy end-to-end cases in
// the 6-week fast window (equality assertions are unchanged; only the
// calendar shrinks).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || defined(IXP_COVERAGE_BUILD)
constexpr int kChaosDays = 42;
#else
constexpr int kChaosDays = 0;  // full calendar
#endif

// ---------------------------------------------------------------------------
// HTTP parser
// ---------------------------------------------------------------------------

HttpParse parse(std::string_view in, HttpRequest* req = nullptr, int* status = nullptr,
                std::size_t* consumed = nullptr, const HttpLimits& limits = {}) {
  HttpRequest local_req;
  int local_status = 0;
  std::size_t local_consumed = 0;
  std::string error;
  return parse_http_request(in, req != nullptr ? req : &local_req,
                            consumed != nullptr ? consumed : &local_consumed,
                            status != nullptr ? status : &local_status, &error, limits);
}

TEST(HttpParser, ParsesSimpleGet) {
  HttpRequest req;
  std::size_t consumed = 0;
  const std::string in = "GET /api/v1/links/top?n=5&x=1 HTTP/1.1\r\nHost: a\r\n\r\n";
  ASSERT_EQ(parse(in, &req, nullptr, &consumed), HttpParse::kOk);
  EXPECT_EQ(consumed, in.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/api/v1/links/top");
  EXPECT_EQ(req.query, "n=5&x=1");
  EXPECT_EQ(req.query_param("n", "20"), "5");
  EXPECT_EQ(req.query_param("x", ""), "1");
  EXPECT_EQ(req.query_param("missing", "7"), "7");
  ASSERT_NE(req.header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.header("HOST"), "a");
  EXPECT_TRUE(req.keep_alive);
}

TEST(HttpParser, BodyViaContentLength) {
  HttpRequest req;
  std::size_t consumed = 0;
  const std::string in = "POST /x HTTP/1.0\r\nContent-Length: 3\r\n\r\nabcEXTRA";
  ASSERT_EQ(parse(in, &req, nullptr, &consumed), HttpParse::kOk);
  EXPECT_EQ(req.body, "abc");
  EXPECT_EQ(consumed, in.size() - 5);  // EXTRA stays buffered
  EXPECT_FALSE(req.keep_alive);       // HTTP/1.0 default
}

TEST(HttpParser, ConnectionHeaderControlsKeepAlive) {
  HttpRequest req;
  ASSERT_EQ(parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &req), HttpParse::kOk);
  EXPECT_FALSE(req.keep_alive);
  ASSERT_EQ(parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", &req), HttpParse::kOk);
  EXPECT_TRUE(req.keep_alive);
}

TEST(HttpParser, LimitViolationsMapToSpecific4xx) {
  int status = 0;
  // Oversized head: 10 KiB of header bytes against the 8 KiB default.
  std::string big = "GET / HTTP/1.1\r\nX: ";
  big.append(10 * 1024, 'a');
  EXPECT_EQ(parse(big, nullptr, &status), HttpParse::kBad);
  EXPECT_EQ(status, 431);
  // Too many header fields.
  std::string many = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 80; ++i) {
    many += "H";
    many += std::to_string(i);
    many += ": v\r\n";
  }
  many += "\r\n";
  EXPECT_EQ(parse(many, nullptr, &status), HttpParse::kBad);
  EXPECT_EQ(status, 431);
  // Over-long target.
  std::string long_target = "GET /";
  long_target.append(3000, 'a');
  long_target += " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(parse(long_target, nullptr, &status), HttpParse::kBad);
  EXPECT_EQ(status, 414);
  // Oversized body.
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", nullptr, &status),
            HttpParse::kBad);
  EXPECT_EQ(status, 413);
  // Chunked framing is rejected outright.
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", nullptr, &status),
            HttpParse::kBad);
  EXPECT_EQ(status, 400);
  // Non-numeric and conflicting Content-Length.
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n", nullptr, &status),
            HttpParse::kBad);
  EXPECT_EQ(status, 400);
  EXPECT_EQ(parse("POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
                  nullptr, &status),
            HttpParse::kBad);
  EXPECT_EQ(status, 400);
  // Unsupported version, non-origin-form target, header syntax.
  EXPECT_EQ(parse("GET / HTTP/2.0\r\n\r\n", nullptr, &status), HttpParse::kBad);
  EXPECT_EQ(status, 400);
  EXPECT_EQ(parse("GET example.com HTTP/1.1\r\n\r\n", nullptr, &status), HttpParse::kBad);
  EXPECT_EQ(status, 400);
  EXPECT_EQ(parse("GET / HTTP/1.1\r\n: novalue\r\n\r\n", nullptr, &status), HttpParse::kBad);
  EXPECT_EQ(status, 400);
}

TEST(HttpParser, NeedMoreNeverExceedsLimits) {
  // kNeedMore promises no limit has been exceeded: a garbage flood with no
  // head terminator must flip to 431 at the head cap, not buffer forever.
  int status = 0;
  const std::string flood(64 * 1024, 'G');
  EXPECT_EQ(parse(flood, nullptr, &status), HttpParse::kBad);
  EXPECT_EQ(status, 431);
  EXPECT_EQ(parse("GET / HT"), HttpParse::kNeedMore);
}

// The warts-lite fuzz idiom (test_prober.cc): every truncation and every
// single-byte corruption of a valid input must produce a clean verdict --
// kNeedMore or a 4xx kBad -- and never crash, hang, or mis-frame.
TEST(HttpParser, FuzzTruncationsAndCorruptions) {
  const std::vector<std::string> corpus = {
      "GET / HTTP/1.1\r\n\r\n",
      "GET /api/v1/links/top?n=5 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
      "POST /x HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc",
      "GET /metrics HTTP/1.1\r\nAccept: text/plain\r\nUser-Agent: soak\r\n\r\n",
  };
  for (const std::string& valid : corpus) {
    ASSERT_EQ(parse(valid), HttpParse::kOk) << valid;
    // Every proper prefix is an incomplete request, never a parse.
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      const HttpParse st = parse(valid.substr(0, cut));
      EXPECT_NE(st, HttpParse::kOk) << "cut=" << cut << " of: " << valid;
    }
    // Every single-byte corruption parses to *some* clean verdict; kBad
    // must carry a 4xx status the server can answer with.
    const std::string bytes = std::string("\x00\xff \rA:", 6);
    for (std::size_t pos = 0; pos < valid.size(); ++pos) {
      for (const char c : bytes) {
        if (valid[pos] == c) continue;
        std::string mutated = valid;
        mutated[pos] = c;
        int status = 0;
        std::size_t consumed = 0;
        const HttpParse st = parse(mutated, nullptr, &status, &consumed);
        if (st == HttpParse::kBad) {
          EXPECT_GE(status, 400) << "pos=" << pos;
          EXPECT_LT(status, 500) << "pos=" << pos;
        } else if (st == HttpParse::kOk) {
          EXPECT_LE(consumed, mutated.size());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HTTP server on a real socket
// ---------------------------------------------------------------------------

HttpServer::Options fast_server_options() {
  HttpServer::Options o;
  o.threads = 2;
  o.poll_interval_ms = 20;
  o.idle_timeout_ms = 500;
  return o;
}

TEST(HttpServer, ServesAndKeepsAlive) {
  HttpServer server(
      [](const HttpRequest& req) {
        HttpResponse resp;
        resp.body = "echo:" + req.path + "?" + req.query;
        return resp;
      },
      fast_server_options());
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  HttpClient client;
  ASSERT_TRUE(client.connect(server.port()));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.get("/a/b?x=1", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "echo:/a/b?x=1");
  // Same connection serves a second request (keep-alive).
  ASSERT_TRUE(client.get("/second", &status, &body));
  EXPECT_EQ(body, "echo:/second?");
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, MalformedInputGetsCleanFourOhFour) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    fast_server_options());
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  struct Case {
    std::string bytes;
    std::string want_status;
  };
  const std::vector<Case> cases = {
      {"GARBAGE\r\n\r\n", "400"},
      {"GET / HTTP/9.9\r\n\r\n", "400"},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "400"},
      {"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n", "413"},
      {std::string("GET /").append(4000, 'a') + " HTTP/1.1\r\n\r\n", "414"},
      {std::string("GET / HTTP/1.1\r\nX: ").append(16 * 1024, 'b'), "431"},
  };
  for (const Case& c : cases) {
    HttpClient client;
    ASSERT_TRUE(client.connect(server.port()));
    std::string resp;
    ASSERT_TRUE(client.raw_roundtrip(c.bytes, &resp));
    EXPECT_NE(resp.find("HTTP/1.1 " + c.want_status), std::string::npos)
        << "input: " << c.bytes.substr(0, 40) << "... got: " << resp.substr(0, 80);
    // The server closes after a framing error.
    EXPECT_NE(resp.find("Connection: close"), std::string::npos);
  }
  EXPECT_EQ(server.bad_requests(), cases.size());
  server.stop();
}

TEST(HttpServer, HandlerExceptionBecomes500) {
  HttpServer server(
      [](const HttpRequest&) -> HttpResponse { throw std::runtime_error("boom"); },
      fast_server_options());
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  HttpClient client;
  ASSERT_TRUE(client.connect(server.port()));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.get("/", &status, &body));
  EXPECT_EQ(status, 500);
  EXPECT_EQ(body, "boom\n");
  server.stop();
}

TEST(HttpServer, StopDrainsWithIdleConnectionParked) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    fast_server_options());
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  // Park an idle keep-alive connection on a worker, then stop(): the short
  // poll interval means stop() must return promptly anyway.
  HttpClient client;
  ASSERT_TRUE(client.connect(server.port()));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.get("/", &status, &body));
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5));
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

analysis::LiveVerdictBatch make_batch(const std::string& vp, int epoch_salt,
                                      std::size_t links = 8) {
  analysis::LiveVerdictBatch batch;
  batch.vp_name = vp;
  batch.ixp = "GIXA";
  batch.at = TimePoint(kDay * (epoch_salt + 1));
  for (std::size_t i = 0; i < links; ++i) {
    analysis::LiveLinkVerdict v;
    v.key = "L";
    v.key += std::to_string(i);
    v.far_asn = 65000 + static_cast<std::uint32_t>(i);
    v.at_ixp = true;
    v.samples = 100 + static_cast<std::size_t>(epoch_salt);
    v.far.baseline_ms = 1.5;
    v.far.coverage = 0.99;
    tslp::Episode e;
    e.begin = 10;
    e.end = 20;
    e.magnitude_ms = 5.0 + static_cast<double>((epoch_salt * 7 + i * 13) % 50);
    e.p_value = 1e-6;
    v.far.episodes.push_back(e);
    batch.links.push_back(std::move(v));
  }
  return batch;
}

TEST(Snapshot, BuilderFoldsLiveThenFinal) {
  SnapshotBuilder builder;
  builder.begin_pass(1);
  builder.fold_live("VP1", "GIXA", make_batch("VP1", 3));
  const auto live = builder.build("# prom\n", false);
  EXPECT_EQ(live->epoch, 1u);
  EXPECT_EQ(live->pass, 1u);
  ASSERT_EQ(live->links.size(), 8u);
  EXPECT_FALSE(live->links[0].has_verdict);
  EXPECT_EQ(live->metrics_prom, "# prom\n");

  // A final fold replaces live evidence with the authoritative verdict.
  analysis::VpCampaignResult result;
  tslp::LinkSeries ls;
  ls.key = "L0";
  ls.far_asn = 65000;
  ls.at_ixp = true;
  result.series.push_back(ls);
  tslp::LinkReport rep;
  rep.key = "L0";
  rep.verdict = tslp::Verdict::kCongested;
  rep.persistence = tslp::Persistence::kSustained;
  rep.near_clean = true;
  tslp::Episode e;
  e.begin = 5;
  e.end = 9;
  e.magnitude_ms = 30.0;
  e.p_value = 1e-9;
  rep.far_shifts.episodes.push_back(e);
  result.reports.push_back(rep);
  builder.fold_final("VP1", "GIXA", result);
  const auto fin = builder.build("# prom2\n", true);
  EXPECT_EQ(fin->epoch, 2u);
  EXPECT_TRUE(fin->final_pass);
  // Rank order puts the congested link first.
  ASSERT_FALSE(fin->links.empty());
  EXPECT_EQ(fin->links[0].key, "L0");
  EXPECT_TRUE(fin->links[0].congested());
  EXPECT_DOUBLE_EQ(fin->links[0].max_magnitude_ms(), 30.0);
  // The pinned older epoch is untouched by the newer publish.
  EXPECT_EQ(live->epoch, 1u);
  EXPECT_FALSE(live->links[0].has_verdict);
}

TEST(Snapshot, RenderersAreTotalOnUnknownIds) {
  SnapshotBuilder builder;
  builder.fold_live("VP1", "GIXA", make_batch("VP1", 1));
  const auto snap = builder.build("", false);
  std::string out;
  EXPECT_TRUE(render_ixp_summary(*snap, "GIXA", &out));
  EXPECT_NE(out.find("\"ixp\":\"GIXA\""), std::string::npos);
  EXPECT_FALSE(render_ixp_summary(*snap, "NOPE", &out));
  EXPECT_TRUE(render_link_episodes(*snap, "L3", &out));
  EXPECT_NE(out.find("\"episodes\":["), std::string::npos);
  EXPECT_FALSE(render_link_episodes(*snap, "L999", &out));
  // top is clamped to the link count.
  const std::string top = render_links_top(*snap, 100);
  EXPECT_NE(top.find("\"total_links\":8"), std::string::npos);
}

TEST(Snapshot, FacilityAggregationRanksAndRenders) {
  // Three links homed at NBO-F1 all go dark; NBO-F2 and the unassigned
  // background stay healthy.  The facilities endpoints must flag exactly
  // F1, rank it first, and expose its member links.
  SnapshotBuilder builder;
  builder.set_facilities({{"VP1/65000", "NBO-F1"},
                          {"VP1/65001", "NBO-F1"},
                          {"VP1/65002", "NBO-F1"},
                          {"VP1/65003", "NBO-F2"},
                          {"VP1/65004", "NBO-F2"}});
  auto batch = make_batch("VP1", 1);
  for (std::size_t i = 0; i < 3; ++i) batch.links[i].far.coverage = 0.2;
  builder.fold_live("VP1", "GIXA", batch);
  const auto snap = builder.build("", false);

  const std::string top = render_facilities_top(*snap, 100);
  EXPECT_NE(top.find("\"total_facilities\":2"), std::string::npos);
  // Rank order: the disrupted facility leads.
  const std::size_t f1 = top.find("\"facility\":\"NBO-F1\"");
  const std::size_t f2 = top.find("\"facility\":\"NBO-F2\"");
  ASSERT_NE(f1, std::string::npos);
  ASSERT_NE(f2, std::string::npos);
  EXPECT_LT(f1, f2);
  EXPECT_NE(top.find("\"disrupted\":3,"), std::string::npos);
  EXPECT_NE(top.find("\"disrupted_verdict\":true"), std::string::npos);

  // The default depth is pre-rendered at freeze time and must match a
  // fresh render byte for byte.
  EXPECT_EQ(snap->facilities_top_default,
            render_facilities_top(*snap, Snapshot::kDefaultTopN));

  std::string out;
  ASSERT_TRUE(render_facility_summary(*snap, "NBO-F1", &out));
  EXPECT_NE(out.find("\"summary\":{\"facility\":\"NBO-F1\""), std::string::npos);
  EXPECT_NE(out.find("\"links\":3,"), std::string::npos);
  EXPECT_NE(out.find("\"disrupted\":true"), std::string::npos);
  ASSERT_TRUE(render_facility_summary(*snap, "NBO-F2", &out));
  EXPECT_NE(out.find("\"disrupted_verdict\":false"), std::string::npos);
  EXPECT_FALSE(render_facility_summary(*snap, "NBO-F9", &out));
  // Healthy facility: no verdict (its links are all covered).
  EXPECT_NE(top.find("\"facility\":\"NBO-F2\",\"links\":2,\"congested\":0,"
                     "\"disrupted\":0,"),
            std::string::npos);
}

// The snapshot-isolation property, pinned under TSan by
// check_sanitize_thread: M readers pin epochs while a writer publishes N
// more; a pinned epoch renders byte-identical JSON every time, on every
// thread, no matter what is published concurrently.
TEST(Snapshot, ReadersObserveByteIdenticalEpochsUnderConcurrentPublishes) {
  SnapshotBuilder builder;
  SnapshotStore store;
  builder.begin_pass(1);
  constexpr int kWriterEpochs = 200;
  constexpr int kReaders = 4;

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::map<std::uint64_t, std::string>> seen(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const Snapshot> snap = store.current();
        const std::string a = render_links_top(*snap, 100);
        // Re-render from the same pinned epoch: must be the same bytes
        // even if the writer published meanwhile.
        if (render_links_top(*snap, 100) != a) mismatches.fetch_add(1);
        const auto [it, inserted] = seen[r].emplace(snap->epoch, a);
        // Re-pinning an epoch seen before must re-render identically.
        if (!inserted && it->second != a) mismatches.fetch_add(1);
      }
    });
  }
  for (int e = 0; e < kWriterEpochs; ++e) {
    builder.fold_live("VP1", "GIXA", make_batch("VP1", e));
    std::string prom = "# epoch ";
    prom += std::to_string(e);
    prom += "\n";
    store.publish(builder.build(std::move(prom), false));
    // Yield so readers interleave with publishes even on a 1-CPU host.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Let every reader pin the final epoch before stopping them, so at least
  // one epoch is guaranteed to be observed by all readers.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.epochs_published(), static_cast<std::uint64_t>(kWriterEpochs));
  // Cross-thread: any epoch observed by two readers rendered the same
  // bytes on both.
  std::size_t shared_epochs = 0;
  for (int a = 0; a < kReaders; ++a) {
    for (int b = a + 1; b < kReaders; ++b) {
      for (const auto& [epoch, bytes] : seen[a]) {
        const auto it = seen[b].find(epoch);
        if (it == seen[b].end()) continue;
        ++shared_epochs;
        EXPECT_EQ(it->second, bytes) << "epoch " << epoch;
      }
    }
  }
  EXPECT_GT(shared_epochs, 0u);  // the threads really did overlap
}

// ---------------------------------------------------------------------------
// ServeDaemon
// ---------------------------------------------------------------------------

HttpRequest make_get(const std::string& target) {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  const std::size_t q = target.find('?');
  req.path = target.substr(0, q);
  req.query = q == std::string::npos ? "" : target.substr(q + 1);
  return req;
}

// "vp/link" of every congested verdict.
std::set<std::string> verdict_set(const std::vector<analysis::VpCampaignResult>& results) {
  std::set<std::string> out;
  for (const auto& r : results) {
    for (std::size_t k = 0; k < r.reports.size(); ++k) {
      if (r.reports[k].congested()) out.insert(r.vp_name + "/" + r.series[k].key);
    }
  }
  return out;
}

ServeOptions fast_daemon_options(int days, std::uint64_t rounds) {
  ServeOptions sopt;
  sopt.specs = analysis::make_all_vps();
  sopt.campaign.round_interval = kMinute * 30;
  sopt.campaign.duration_override = kDay * days;
  sopt.rounds = rounds;
  sopt.http_threads = 2;
  return sopt;
}

TEST(ServeDaemon, RoutesRequestsFromTheDispatchTable) {
  // handle() is a pure function of (request, current snapshot): routing is
  // testable without a socket or a campaign.
  ServeDaemon daemon(fast_daemon_options(7, 1));
  EXPECT_EQ(daemon.handle(make_get("/metrics")).status, 200);
  EXPECT_EQ(daemon.handle(make_get("/metrics")).content_type, "text/plain; version=0.0.4");
  EXPECT_EQ(daemon.handle(make_get("/healthz")).status, 200);
  EXPECT_EQ(daemon.handle(make_get("/api/v1/links/top")).status, 200);
  EXPECT_EQ(daemon.handle(make_get("/api/v1/links/top?n=abc")).status, 200);  // clamped
  EXPECT_EQ(daemon.handle(make_get("/api/v1/ixps/GIXA/summary")).status, 404);  // empty snap
  EXPECT_EQ(daemon.handle(make_get("/api/v1/links/X/episodes")).status, 404);
  EXPECT_EQ(daemon.handle(make_get("/api/v1/ixps//summary")).status, 404);
  EXPECT_EQ(daemon.handle(make_get("/api/v1/facilities/top")).status, 200);
  EXPECT_EQ(daemon.handle(make_get("/api/v1/facilities/top?n=abc")).status, 200);  // clamped
  EXPECT_EQ(daemon.handle(make_get("/api/v1/facilities/NOPE/summary")).status, 404);
  EXPECT_EQ(daemon.handle(make_get("/api/v1/facilities/NOPE/summary")).body,
            "{\"error\":\"unknown facility\"}");
  EXPECT_EQ(daemon.handle(make_get("/api/v1/facilities//summary")).status, 404);
  EXPECT_EQ(daemon.handle(make_get("/nope")).status, 404);
  HttpRequest post = make_get("/metrics");
  post.method = "POST";
  EXPECT_EQ(daemon.handle(post).status, 405);
  // The empty pre-first-publish snapshot serves an empty-but-valid top.
  const HttpResponse top = daemon.handle(make_get("/api/v1/links/top?n=3"));
  EXPECT_NE(top.body.find("\"epoch\":0"), std::string::npos);
  EXPECT_NE(top.body.find("\"links\":[]"), std::string::npos);
  const HttpResponse ftop = daemon.handle(make_get("/api/v1/facilities/top?n=3"));
  EXPECT_NE(ftop.body.find("\"total_facilities\":0"), std::string::npos);
  EXPECT_NE(ftop.body.find("\"facilities\":[]"), std::string::npos);
}

TEST(ServeDaemon, EveryEndpointPatternIsRouted) {
  // The dispatch table (which docs/SERVING.md is linted against) must stay
  // in lockstep with handle(): substituting a known id into each pattern
  // must route somewhere real (200 here; 404 only for snapshot content the
  // empty snapshot cannot have -- but never the unknown-endpoint 404).
  ServeDaemon daemon(fast_daemon_options(7, 1));
  for (const auto& e : ServeDaemon::endpoints()) {
    std::string target = e.pattern;
    const std::size_t id = target.find("<id>");
    if (id != std::string::npos) target.replace(id, 4, "SOMEID");
    const HttpResponse resp = daemon.handle(make_get(target));
    EXPECT_NE(resp.body, "{\"error\":\"unknown endpoint\"}") << e.pattern;
  }
}

TEST(ServeDaemon, ServesLiveEpochsOverHttp) {
  ServeOptions sopt = fast_daemon_options(7, 1);
  sopt.campaign.duration_override = kDay * 7;
  ServeDaemon daemon(std::move(sopt));
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;
  // Query while the pass runs; every response must be a complete 200.
  HttpClient client;
  ASSERT_TRUE(client.connect(daemon.port()));
  std::size_t responses = 0;
  int status = 0;
  std::string body;
  while (daemon.passes_completed() == 0) {
    if (!client.connected() && !client.connect(daemon.port())) break;
    if (client.get("/api/v1/links/top?n=5", &status, &body)) {
      EXPECT_EQ(status, 200);
      EXPECT_FALSE(body.empty());
      EXPECT_EQ(body.front(), '{');
      ++responses;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(daemon.wait(), 0);
  EXPECT_GT(responses, 0u);
  const auto snap = daemon.snapshot();
  EXPECT_TRUE(snap->final_pass);
  EXPECT_GT(snap->links.size(), 0u);
  EXPECT_GT(daemon.epochs_published(), 0u);
  // The final epoch carries verdicts for every link.
  for (const LinkState& l : snap->links) EXPECT_TRUE(l.has_verdict) << l.key;
}

// Chaos under load: the serving path must not perturb detection.  The
// daemon runs the default fault plan while a scripted client hammers
// /api/v1/links/top; the final verdict set must equal the batch `afixp
// chaos` oracle, scored by the exact same analysis::score_chaos.
TEST(ServeDaemon, ChaosUnderLoadReproducesTheBatchOracle) {
  const auto specs = analysis::make_all_vps();
  const ScenarioPlan* splan = find_plan("default");
  ASSERT_NE(splan, nullptr);
  const FaultPlan* plan = &splan->faults;
  const Duration window = kChaosDays > 0 ? kDay * kChaosDays : Duration(0);

  // Batch oracle: what `afixp chaos` runs (no live-verdict observer).
  analysis::FleetOptions batch;
  batch.campaign.round_interval = kMinute * 30;
  batch.campaign.duration_override = window;
  batch.fault_plan = plan;
  batch.fault_seed = 1;
  const analysis::FleetResult oracle = analysis::run_fleet(specs, batch);
  const analysis::ChaosScore oracle_score =
      analysis::score_chaos(specs, oracle.results, window);

  // Served run: same plan, same seed, pass 1 -- queried while running.
  ServeOptions sopt;
  sopt.specs = specs;
  sopt.campaign.round_interval = kMinute * 30;
  sopt.campaign.duration_override = window;
  sopt.fault_plan = plan;
  sopt.fault_seed = 1;
  sopt.rounds = 1;
  ServeDaemon daemon(std::move(sopt));
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::thread client_thread([&] {
    HttpClient client;
    int status = 0;
    std::string body;
    while (!done.load(std::memory_order_acquire)) {
      if (!client.connected() && !client.connect(daemon.port())) continue;
      if (client.get("/api/v1/links/top?n=10", &status, &body) && status == 200) {
        queries.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  EXPECT_EQ(daemon.wait(), 0);
  done.store(true, std::memory_order_release);
  client_thread.join();
  EXPECT_GT(queries.load(), 0u);

  ASSERT_EQ(daemon.passes().size(), 1u);
  const analysis::ChaosScore served_score =
      analysis::score_chaos(specs, daemon.passes()[0].results, window);

  // Same confusion counts, same rows, same case-study outcomes.
  EXPECT_EQ(served_score.tp, oracle_score.tp);
  EXPECT_EQ(served_score.fp, oracle_score.fp);
  EXPECT_EQ(served_score.fn, oracle_score.fn);
  EXPECT_EQ(served_score.tn, oracle_score.tn);
  EXPECT_EQ(verdict_set(daemon.passes()[0].results), verdict_set(oracle.results));
  EXPECT_TRUE(served_score.case_studies_ok());
  if (kChaosDays == 0) {
    // Full calendar: the chaos oracle is exact (EXPERIMENTS.md).
    EXPECT_DOUBLE_EQ(served_score.precision(), 1.0);
    EXPECT_DOUBLE_EQ(served_score.recall(), 1.0);
    EXPECT_EQ(served_score.tp, 6u);
  }
}

// A looping daemon's memory stays flat: every pass keeps its entry and
// wall clock, but only the last keeps per-VP results and a registry (the
// earlier ones are already folded into the snapshot and registry()).
TEST(ServeDaemon, KeepsOnlyTheLastPassResults) {
  ServeDaemon daemon(fast_daemon_options(7, /*rounds=*/3));
  std::string err;
  ASSERT_EQ(daemon.run(&err), 0) << err;
  const auto& passes = daemon.passes();
  ASSERT_EQ(passes.size(), 3u);
  for (std::size_t p = 0; p < passes.size(); ++p) {
    SCOPED_TRACE("pass " + std::to_string(p + 1));
    EXPECT_GT(passes[p].wall_seconds, 0.0);
    const bool last = p + 1 == passes.size();
    EXPECT_EQ(passes[p].results.empty(), !last);
    EXPECT_EQ(passes[p].registry.empty(), !last);
  }

  // Fault-free passes all classify alike, so the kept results equal one
  // batch fleet run.
  analysis::FleetOptions batch;
  batch.campaign.round_interval = kMinute * 30;
  batch.campaign.duration_override = kDay * 7;
  const analysis::FleetResult oracle = analysis::run_fleet(analysis::make_all_vps(), batch);
  const auto served = verdict_set(passes.back().results);
  EXPECT_FALSE(served.empty());
  EXPECT_EQ(served, verdict_set(oracle.results));
}

// Deterministic shutdown: SIGTERM mid-flight lets the in-flight pass
// complete, drains readers, exits 0, and the metrics flush is
// byte-identical to a --rounds K run for K = passes actually completed.
TEST(ServeDaemon, SigtermShutdownFlushMatchesRoundsBoundedRun) {
  ServeOptions sopt = fast_daemon_options(7, /*rounds=*/0);  // until SIGTERM
  ServeDaemon daemon(std::move(sopt));
  daemon.install_signal_handlers();
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;

  // A reader keeps a connection busy across the shutdown; every response
  // it gets must be complete (drain = no torn responses).
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    HttpClient client;
    int status = 0;
    std::string body;
    while (!done.load(std::memory_order_acquire)) {
      if (!client.connected() && !client.connect(daemon.port())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      if (client.get("/metrics", &status, &body)) {
        if (status != 200) torn.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Let at least one pass land, then deliver a real SIGTERM.
  while (daemon.passes_completed() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::raise(SIGTERM);
  EXPECT_EQ(daemon.wait(), 0);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0);

  const std::uint64_t completed = daemon.passes_completed();
  ASSERT_GE(completed, 1u);
  EXPECT_TRUE(daemon.snapshot()->final_pass);  // final epoch was published
  std::ostringstream sigterm_flush;
  obs::write_prometheus(sigterm_flush, daemon.registry());

  // Reference: a fresh daemon bounded to exactly that many rounds.
  ServeDaemon bounded(fast_daemon_options(7, completed));
  std::string err2;
  EXPECT_EQ(bounded.run(&err2), 0) << err2;
  EXPECT_EQ(bounded.passes_completed(), completed);
  std::ostringstream bounded_flush;
  obs::write_prometheus(bounded_flush, bounded.registry());
  EXPECT_EQ(sigterm_flush.str(), bounded_flush.str());
  // The served epochs also match: same passes, same final state.
  EXPECT_EQ(render_links_top(*daemon.snapshot(), 1000),
            render_links_top(*bounded.snapshot(), 1000));
}

}  // namespace
