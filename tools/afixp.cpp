// afixp -- the command-line front end to the library.
//
//   afixp campaign  --vp 1 --days 60 --out cap.wlt --report rep.md
//       run one of the paper's six VP campaigns, write a warts-lite
//       capture and a Markdown congestion report.
//   afixp analyze   <capture.wlt> --threshold 10
//       re-analyse a capture with different detector settings.
//   afixp tables    [--fast] [--round-minutes 30] [--jobs N]
//       regenerate the paper's Table 1 and Table 2 in one run, fanning
//       the six VP campaigns out across a thread pool.
//   afixp casebook
//       print the documented §6.2 case studies.
//   afixp selftest  [--golden-dir tests/golden] [--update-golden]
//       golden-regression checks of the statistics path (level shifts,
//       change points, diurnal scoring, loss correlation).
//   afixp bench     [--smoke] [--out BENCH_sim.json] [--only <name>] [--tslp]
//       probe hot-path benchmark harness; emits the BENCH_sim.json perf
//       record compared across PRs (see README "Benchmark harness").
//       --tslp runs the TSLP statistics harness instead (scalar vs batch
//       vs online detector engines -> BENCH_tslp.json).
//   afixp chaos     [--plan default] [--seed 1] [--fast] [--jobs N]
//       run the six VP campaigns under a named fault plan and score the
//       classifier against the engineered ground truth (precision/recall
//       under measurement pathologies; see EXPERIMENTS.md).
//   afixp gen       [--spec continent100|file] [--run | --bench | --print]
//       expand a declarative topology spec into a whole IXP substrate and
//       (optionally) run the fleet over it with columnar RTT storage, or
//       benchmark it into BENCH_substrate.json (see docs/SCALING.md).
//   afixp serve     [--rounds N] [--port P] [--fault-plan default]
//       run the always-on congestion observatory: fleet passes feed epoch
//       snapshots served over HTTP (/metrics + the /api/v1 query API;
//       see docs/SERVING.md).
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>

#include "analysis/africa.h"
#include "analysis/benchmarks.h"
#include "analysis/campaign.h"
#include "analysis/casebook.h"
#include "analysis/chaos.h"
#include "analysis/fleet.h"
#include "analysis/report.h"
#include "analysis/selftest.h"
#include "analysis/substrate.h"
#include "analysis/tables.h"
#include "obs/export.h"
#include "prober/warts_lite.h"
#include "serve/serve.h"
#include "tslp/classifier.h"
#include "util/env.h"
#include "util/fault_plan.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace ixp;

// Keep this list in sync with README "Environment knobs" and the knob
// registry in src/util/env.cc (tools/check_docs.sh cross-checks them).
constexpr const char* kEnvHelp =
    "environment knobs:\n"
    "  IXP_ROUND_MINUTES  TSLP probing cadence in minutes for table/bench\n"
    "                     campaigns (default 30; the paper probed every 5)\n"
    "  IXP_FAST           when set (and not 0), shorten campaigns to 6 weeks\n"
    "                     (smoke-test mode for the table benches)\n"
    "  IXP_JOBS           default worker-thread count for fleet runs when\n"
    "                     --jobs is 0/absent (else hardware concurrency,\n"
    "                     clamped to the number of campaigns)\n"
    "  IXP_PARANOID       when set (and not 0), enable the runtime invariant\n"
    "                     checks (episode ordering, fluid-queue backlog\n"
    "                     bounds, series indexing) in every component\n"
    "  IXP_FAULT_PLAN     default fault plan name for `afixp chaos` when\n"
    "                     --plan is absent (else 'default'); see\n"
    "                     `afixp chaos --list-plans`\n"
    "  IXP_METRICS        default --metrics-out path for campaign/tables/\n"
    "                     chaos when the flag is absent (.prom/.txt writes\n"
    "                     Prometheus text, anything else afixp-obs/1 JSON)\n";

/// --metrics-out flag value, falling back to the IXP_METRICS knob.  Empty
/// means "do not export".
std::string resolve_metrics_out(const Flags& flags) {
  const std::string path = flags.get_string("metrics-out");
  if (!path.empty()) return path;
  return env::string_value("IXP_METRICS").value_or("");
}

/// Exports `reg` to `path` if non-empty; reports failures on stderr.
int export_metrics(const std::string& path, const obs::Registry& reg) {
  if (path.empty()) return 0;
  if (!obs::write_to_file(path, reg)) {
    std::cerr << "cannot write metrics to " << path << "\n";
    return 1;
  }
  // Status goes to stderr like the fleet progress lines: stdout carries
  // only the tables/report, which must stay byte-identical regardless of
  // where (or whether) metrics are written.
  std::cerr << "metrics: " << path << "\n";
  return 0;
}

int cmd_campaign(int argc, const char* const* argv) {
  Flags flags("afixp campaign", "run one of the paper's six VP campaigns");
  flags.add_int("vp", 1, "vantage point 1..6 (GIXA, TIX, JINX, SIXP, KIXP, RINEX)");
  flags.add_int("days", 60, "campaign length in days (0 = the paper's full calendar)");
  flags.add_int("round-minutes", 15, "TSLP probing cadence");
  flags.add_string("out", "", "warts-lite capture path (empty = no capture)");
  flags.add_string("report", "", "Markdown report path (empty = stdout summary only)");
  flags.add_string("metrics-out", "",
                   "metrics registry export path (default IXP_METRICS; empty = off)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  const auto specs = analysis::make_all_vps();
  const std::int64_t vp = flags.get_int("vp");
  if (vp < 1 || vp > static_cast<std::int64_t>(specs.size())) {
    std::cerr << "--vp must be 1..6\n";
    return 2;
  }
  const auto& spec = specs[static_cast<std::size_t>(vp - 1)];
  auto rt = analysis::build_scenario(spec);
  analysis::CampaignOptions opt;
  opt.round_interval = kMinute * flags.get_int("round-minutes");
  if (flags.get_int("days") > 0) opt.duration_override = kDay * flags.get_int("days");
  obs::Registry metrics_reg;
  const std::string metrics_out = resolve_metrics_out(flags);
  if (!metrics_out.empty()) opt.metrics = &metrics_reg;
  const auto result = analysis::run_campaign(*rt, spec, opt);

  std::cout << spec.vp_name << " at " << spec.ixp.name << ": " << result.series.size()
            << " monitored links, " << result.congested() << " congested, "
            << result.potentially_congested(10.0) << " flagged at 10 ms\n";
  for (const auto& s : result.snapshots) {
    std::cout << "  " << analysis::format_date(s.at) << ": " << s.discovered_links << " ("
              << s.peering_links << ") links, " << s.neighbors << " (" << s.peers
              << ") neighbors, " << s.congested_links << " congested\n";
  }
  if (const auto out = flags.get_string("out"); !out.empty()) {
    prober::WartsLiteFile file;
    file.links = result.series;
    std::ofstream f(out, std::ios::binary);
    if (!prober::write_warts_lite(f, file)) {
      std::cerr << "failed to write " << out << "\n";
      return 1;
    }
    std::cout << "capture: " << out << "\n";
  }
  if (const auto rep = flags.get_string("report"); !rep.empty()) {
    std::ofstream f(rep);
    analysis::ReportOptions ropt;
    ropt.include_link_appendix = true;
    analysis::write_report(f, spec, result, ropt);
    std::cout << "report: " << rep << "\n";
  }
  return export_metrics(metrics_out, metrics_reg);
}

int cmd_analyze(int argc, const char* const* argv) {
  Flags flags("afixp analyze", "re-analyse a warts-lite capture");
  flags.add_double("threshold", 10.0, "level-shift magnitude threshold in ms");
  flags.add_double("min-duration-min", 30.0, "minimum shift duration in minutes");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested() || flags.positional().empty()) {
    std::cout << flags.help_text() << "\nusage: afixp analyze <capture.wlt> [flags]\n";
    return flags.help_requested() ? 0 : 2;
  }
  std::ifstream in(flags.positional()[0], std::ios::binary);
  const auto file = prober::read_warts_lite(in);
  if (!file) {
    std::cerr << flags.positional()[0] << ": not a warts-lite capture\n";
    return 1;
  }
  tslp::ClassifierOptions copt;
  copt.level_shift.threshold_ms = flags.get_double("threshold");
  copt.level_shift.min_duration =
      Duration(static_cast<std::int64_t>(flags.get_double("min-duration-min") * 60e9));
  tslp::CongestionClassifier classifier(copt);
  std::size_t flagged = 0;
  for (const auto& link : file->links) {
    const auto rep = classifier.classify(link);
    if (!rep.potentially_congested()) continue;
    ++flagged;
    std::cout << link.key << ": "
              << (rep.congested() ? "CONGESTED" : "flagged (no diurnal pattern)") << "  A_w="
              << strformat("%.1f", rep.waveform.a_w_ms) << "ms\n";
  }
  std::cout << flagged << " of " << file->links.size() << " links flagged\n";
  return 0;
}

int cmd_tables(int argc, const char* const* argv) {
  Flags flags("afixp tables", "regenerate the paper's Table 1 and Table 2");
  flags.add_bool("fast", false, "6-week campaigns instead of the full calendar");
  flags.add_int("round-minutes", 30, "TSLP probing cadence");
  flags.add_int("jobs", 0, "campaigns to run in parallel (0 = IXP_JOBS, else hardware)");
  flags.add_string("report", "", "write the combined multi-VP Markdown report here");
  flags.add_string("metrics-out", "",
                   "fleet metrics registry export path (default IXP_METRICS; empty = off); "
                   "byte-identical for any --jobs");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text() << "\n" << kEnvHelp;
    return 0;
  }
  const auto specs = analysis::make_all_vps();

  // All six campaigns fan out across the fleet; the live status line and
  // the metrics table go to stderr so stdout stays machine-readable and
  // byte-identical for every --jobs value.
  analysis::FleetOptions fopt;
  fopt.campaign.round_interval = kMinute * flags.get_int("round-minutes");
  if (flags.get_bool("fast")) fopt.campaign.duration_override = kDay * 42;
  fopt.jobs = static_cast<int>(flags.get_int("jobs"));
  analysis::FleetStatusPrinter status(std::cerr, specs);
  fopt.on_progress = [&status](const analysis::CampaignMetrics& m) { status(m); };
  auto fleet = analysis::run_fleet(specs, fopt);
  status.finish();
  analysis::print_fleet_metrics(std::cerr, fleet);

  std::vector<analysis::Table1Row> t1;
  std::vector<analysis::Table2Row> t2;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    t1.push_back(analysis::make_table1_row(fleet.results[i]));
    for (auto& row : analysis::make_table2_rows(fleet.results[i], specs[i])) t2.push_back(row);
  }
  const auto& results = fleet.results;
  std::cout << "\n";
  analysis::print_table1(std::cout, t1);
  std::cout << "\n";
  analysis::print_table2(std::cout, t2);
  const auto headline = analysis::make_headline(results);
  std::cout << "\nheadline: " << strformat("%.1f%%", headline.fraction())
            << " of monitored peering links congested (paper: 2.2%)\n";
  if (const auto rep = flags.get_string("report"); !rep.empty()) {
    std::vector<std::pair<analysis::VpSpec, const analysis::VpCampaignResult*>> pairs;
    for (std::size_t i = 0; i < specs.size(); ++i) pairs.emplace_back(specs[i], &results[i]);
    std::ofstream f(rep);
    analysis::write_combined_report(f, pairs);
    std::cout << "combined report: " << rep << "\n";
  }
  return export_metrics(resolve_metrics_out(flags), fleet.registry);
}

int cmd_selftest(int argc, const char* const* argv) {
  Flags flags("afixp selftest", "golden-regression checks of the statistics path");
  flags.add_string("golden-dir", "tests/golden",
                   "directory holding the checked-in golden records");
  flags.add_bool("update-golden", false,
                 "regenerate the golden records from the current code instead of comparing");
  flags.add_string("case", "", "run only the named case (default: all)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text() << "\ncases:\n";
    for (const auto& c : analysis::selftest_cases()) {
      std::cout << "  " << c.name << "  " << c.description << "\n";
    }
    return 0;
  }
  const int failures =
      analysis::run_selftest(std::cout, flags.get_string("golden-dir"),
                             flags.get_bool("update-golden"), flags.get_string("case"));
  return failures == 0 ? 0 : 1;
}

int cmd_bench(int argc, const char* const* argv) {
  Flags flags("afixp bench", "probe hot-path benchmark harness (BENCH_sim.json)");
  flags.add_bool("smoke", false, "CI-sized workloads (seconds, not minutes)");
  flags.add_string("out", "BENCH_sim.json", "output JSON path (empty = stdout; "
                   "defaults to BENCH_tslp.json under --tslp)");
  flags.add_string("only", "", "run only the named benchmark (probe_fabric, "
                   "event_loop, campaign_six_vp)");
  flags.add_int("repeats", 3, "warm passes per micro-benchmark");
  flags.add_bool("metrics", false,
                 "collect observability registries during campaign_six_vp (the "
                 "reference numbers keep this off; check_bench gates the overhead)");
  flags.add_bool("tslp", false,
                 "run the TSLP statistics benchmark instead (scalar vs batch vs "
                 "online detector engines; writes the BENCH_tslp.json record)");
  flags.add_string("spec", "regional50",
                   "--tslp corpus sizing preset (paper6, regional50, continent100)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  if (flags.get_bool("tslp")) {
    analysis::TslpBenchOptions topt;
    topt.smoke = flags.get_bool("smoke");
    topt.spec = flags.get_string("spec");
    topt.repeats = static_cast<int>(flags.get_int("repeats"));
    analysis::TslpBenchReport report;
    try {
      report = analysis::run_tslp_benchmark(topt, &std::cerr);
    } catch (const std::exception& e) {
      std::cerr << "afixp bench --tslp: " << e.what() << "\n";
      return 1;
    }
    auto out_path = flags.get_string("out");
    if (out_path == "BENCH_sim.json") out_path = "BENCH_tslp.json";
    if (out_path.empty()) {
      analysis::write_tslp_bench_json(std::cout, report);
      return report.equivalent ? 0 : 1;
    }
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    analysis::write_tslp_bench_json(out, report);
    std::cout << "bench record: " << out_path << "\n";
    return report.equivalent ? 0 : 1;
  }
  analysis::BenchOptions opt;
  opt.smoke = flags.get_bool("smoke");
  opt.only = flags.get_string("only");
  opt.repeats = static_cast<int>(flags.get_int("repeats"));
  opt.metrics = flags.get_bool("metrics");
  analysis::BenchReport report;
  try {
    report = analysis::run_sim_benchmarks(opt, &std::cerr);
  } catch (const std::invalid_argument& e) {
    std::cerr << "afixp bench: " << e.what() << "\n";
    return 2;
  }
  const auto out_path = flags.get_string("out");
  if (out_path.empty()) {
    analysis::write_bench_json(std::cout, report);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  analysis::write_bench_json(out, report);
  std::cout << "bench record: " << out_path << "\n";
  return 0;
}

int cmd_chaos(int argc, const char* const* argv) {
  Flags flags("afixp chaos",
              "run the six VP campaigns under a fault plan and score the classifier");
  flags.add_string("plan", "",
                   "fault plan name (empty = IXP_FAULT_PLAN, else 'default')");
  flags.add_int("seed", 1, "fault seed; same plan+seed replays byte-identically");
  flags.add_bool("fast", false, "6-week campaigns instead of the full calendar");
  flags.add_int("days", 0, "campaign length in days (0 = full; overrides --fast)");
  flags.add_int("round-minutes", 30, "TSLP probing cadence");
  flags.add_int("jobs", 0, "campaigns to run in parallel (0 = IXP_JOBS, else hardware)");
  flags.add_bool("list-plans", false, "list the built-in fault plans and exit");
  flags.add_string("metrics-out", "",
                   "fleet metrics registry export path (default IXP_METRICS; empty = off)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text() << "\n" << kEnvHelp;
    return 0;
  }
  if (flags.get_bool("list-plans")) {
    for (const auto& p : list_plans()) {
      std::cout << strformat("%-9s family=%-8s substrate=%-10s %s\n", p.name.c_str(),
                             p.family.c_str(),
                             p.substrate.empty() ? "paper6-vps" : p.substrate.c_str(),
                             p.description.c_str());
      std::cout << describe_fault_plan(p.faults);
    }
    return 0;
  }
  std::string plan_name = flags.get_string("plan");
  if (plan_name.empty()) {
    plan_name = env::string_value("IXP_FAULT_PLAN").value_or("");
    if (plan_name.empty()) plan_name = "default";
  }
  const ScenarioPlan* plan = find_plan(plan_name);
  if (plan == nullptr) {
    std::cerr << "unknown scenario plan '" << plan_name << "'; known plans:";
    for (const auto& p : list_plans()) std::cerr << " " << p.name;
    std::cerr << "\n";
    return 2;
  }

  // The registry binds each plan to the substrate its scenario family is
  // calibrated for: paper-era plans run the six hand-written VPs, the RIXP
  // and facility families generate their own topologies.
  const auto specs = plan->substrate.empty()
                         ? analysis::make_all_vps()
                         : analysis::generate_substrate(
                               *topo::topo_spec_preset(plan->substrate));
  analysis::FleetOptions fopt;
  fopt.campaign.round_interval = kMinute * flags.get_int("round-minutes");
  if (flags.get_int("days") > 0) {
    fopt.campaign.duration_override = kDay * flags.get_int("days");
  } else if (flags.get_bool("fast")) {
    fopt.campaign.duration_override = kDay * 42;
  }
  fopt.jobs = static_cast<int>(flags.get_int("jobs"));
  fopt.fault_plan = &plan->faults;
  fopt.fault_seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  analysis::FleetStatusPrinter status(std::cerr, specs);
  fopt.on_progress = [&status](const analysis::CampaignMetrics& m) { status(m); };
  auto fleet = analysis::run_fleet(specs, fopt);
  status.finish();
  analysis::print_fleet_metrics(std::cerr, fleet);

  // ---- Score against the engineered ground truth --------------------------
  // Truth: a neighbor is a positive when the spec scripts behaviour the
  // classifier is *supposed* to flag inside the measured window -- diurnal
  // congestion on a monitored link, or slow-ICMP (which TSLP cannot tell
  // apart from congestion; the paper's KNET case study).  Route-change
  // noise is "potentially congested, no diurnal" by design: a negative.
  std::cout << "chaos report\n";
  std::cout << "plan: " << plan_name << " (family " << plan->family << ", seed "
            << flags.get_int("seed") << ")\n";
  std::cout << describe_fault_plan(plan->faults);
  std::cout << "cadence: " << flags.get_int("round-minutes") << " min rounds";
  if (fopt.campaign.duration_override.count() > 0) {
    std::cout << "; window: " << fopt.campaign.duration_override.count() / kDay.count()
              << " days\n";
  } else {
    std::cout << "; window: full calendar\n";
  }

  analysis::ChaosScore score = analysis::score_chaos(
      specs, fleet.results, fopt.campaign.duration_override, plan->family);
  if (!plan->faults.facility_outages.empty()) {
    score.families.push_back(analysis::score_facilities(specs, fleet.results, plan->faults,
                                                        fopt.fault_seed,
                                                        fopt.campaign.duration_override));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    const auto& vp = score.per_vp[i];
    const auto& m = fleet.metrics[i];
    std::cout << strformat(
        "%s (%s): links=%zu TP=%zu FP=%zu FN=%zu TN=%zu | faults=%llu suppressed=%llu "
        "outage_rounds=%llu stale_relearns=%llu loss_relearns=%llu\n",
        spec.vp_name.c_str(), spec.ixp.name.c_str(), fleet.results[i].series.size(),
        vp.tp, vp.fp, vp.fn, vp.tn, static_cast<unsigned long long>(m.fault_events()),
        static_cast<unsigned long long>(m.probes_suppressed()),
        static_cast<unsigned long long>(m.outage_rounds()),
        static_cast<unsigned long long>(m.stale_relearns()),
        static_cast<unsigned long long>(m.loss_relearns()));
  }
  std::cout << "\n";
  for (const auto& r : score.interesting) {
    std::cout << strformat("  %s AS%-6u %-12s truth=%-3s classified=%-3s %s\n",
                           specs[r.vp].vp_name.c_str(), r.asn, r.name.c_str(),
                           r.truth ? "yes" : "no", r.classified ? "yes" : "no",
                           r.outcome());
  }
  std::cout << strformat("\noverall: TP=%zu FP=%zu FN=%zu TN=%zu precision=%.3f recall=%.3f\n",
                         score.tp, score.fp, score.fn, score.tn, score.precision(),
                         score.recall());
  // One row per scenario family.  The link-congestion oracle contributes
  // the plan's own family; plans with facility faults add a "facility" row
  // whose unit is a facility, not a link.
  std::cout << "per-family scores:\n";
  for (const auto& f : score.families) {
    std::cout << strformat("  %-9s TP=%zu FP=%zu FN=%zu TN=%zu precision=%.3f recall=%.3f\n",
                           f.family.c_str(), f.tp, f.fp, f.fn, f.tn, f.precision(),
                           f.recall());
  }
  for (const auto& r : score.case_studies) {
    const bool ok = r.truth == r.classified;
    std::cout << strformat("case study GIXA-%s (AS%u): truth=%s classified=%s %s\n",
                           r.name.c_str(), r.asn, r.truth ? "congested" : "clean",
                           r.classified ? "congested" : "clean",
                           ok ? "ok" : "MISMATCH");
  }
  if (const int rc = export_metrics(resolve_metrics_out(flags), fleet.registry); rc != 0) {
    return rc;
  }
  return score.case_studies_ok() ? 0 : 1;
}

int cmd_serve(int argc, const char* const* argv) {
  Flags flags("afixp serve",
              "run the always-on congestion observatory (see docs/SERVING.md)");
  flags.add_string("spec", "",
                   "substrate to serve: empty = the paper's six VPs, else a preset "
                   "name or spec-file path (docs/SCALING.md)");
  flags.add_string("fault-plan", "",
                   "fault plan applied live to every pass (empty = fault-free; "
                   "see `afixp chaos --list-plans`)");
  flags.add_int("seed", 1,
                "fault seed; pass 1 replays `afixp chaos --seed N` byte-identically");
  flags.add_int("rounds", 1, "fleet passes to run (0 = serve until SIGTERM/SIGINT)");
  flags.add_int("port", 0, "HTTP port on 127.0.0.1 (0 = kernel-assigned)");
  flags.add_int("http-threads", 2, "HTTP worker threads");
  flags.add_bool("fast", false, "6-week campaigns instead of the full calendar");
  flags.add_int("days", 0, "campaign length in days (0 = full; overrides --fast)");
  flags.add_int("round-minutes", 30, "TSLP probing cadence");
  flags.add_bool("columnar", false, "columnar RTT storage (recommended for substrates)");
  flags.add_int("jobs", 0, "campaigns to run in parallel (0 = IXP_JOBS, else hardware)");
  flags.add_string("metrics-out", "",
                   "shutdown metrics flush path (default IXP_METRICS; empty = off)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text() << "\nendpoints:\n";
    for (const auto& e : serve::ServeDaemon::endpoints()) {
      std::cout << strformat("  %-28s %s\n", e.pattern, e.help);
    }
    std::cout << "\n" << kEnvHelp;
    return 0;
  }

  serve::ServeOptions sopt;
  const std::string plan_name = flags.get_string("fault-plan");
  const ScenarioPlan* plan = nullptr;
  if (!plan_name.empty()) {
    plan = find_plan(plan_name);
    if (plan == nullptr) {
      std::cerr << "unknown scenario plan '" << plan_name << "'; known plans:";
      for (const auto& p : list_plans()) std::cerr << " " << p.name;
      std::cerr << "\n";
      return 2;
    }
    sopt.fault_plan = &plan->faults;
  }
  const std::string spec_arg = flags.get_string("spec");
  if (spec_arg.empty()) {
    // No explicit substrate: serve whatever the plan's scenario family is
    // calibrated for (the paper's six VPs when the plan has no substrate,
    // or no plan was named).
    if (plan != nullptr && !plan->substrate.empty()) {
      sopt.specs = analysis::generate_substrate(*topo::topo_spec_preset(plan->substrate));
    } else {
      sopt.specs = analysis::make_all_vps();
    }
  } else {
    std::optional<topo::TopoSpec> spec = topo::topo_spec_preset(spec_arg);
    if (!spec) {
      std::string err;
      spec = topo::load_topo_spec(spec_arg, &err);
      if (!spec) {
        std::cerr << "--spec '" << spec_arg << "' is neither a preset nor a spec file: "
                  << err << "\n";
        return 2;
      }
    }
    sopt.specs = analysis::generate_substrate(*spec);
  }
  sopt.fault_seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  sopt.rounds = static_cast<std::uint64_t>(flags.get_int("rounds"));
  sopt.campaign.round_interval = kMinute * flags.get_int("round-minutes");
  if (flags.get_int("days") > 0) {
    sopt.campaign.duration_override = kDay * flags.get_int("days");
  } else if (flags.get_bool("fast")) {
    sopt.campaign.duration_override = kDay * 42;
  }
  sopt.campaign.columnar = flags.get_bool("columnar");
  sopt.jobs = static_cast<int>(flags.get_int("jobs"));
  sopt.port = static_cast<int>(flags.get_int("port"));
  sopt.http_threads = static_cast<int>(flags.get_int("http-threads"));
  sopt.log = &std::cerr;

  serve::ServeDaemon daemon(std::move(sopt));
  daemon.install_signal_handlers();
  std::string err;
  if (!daemon.start(&err)) {
    std::cerr << "serve: " << err << "\n";
    return 1;
  }
  std::cerr << "serve: listening on 127.0.0.1:" << daemon.port() << "\n";
  const int rc = daemon.wait();
  std::cerr << strformat(
      "serve: done; passes=%llu epochs=%llu requests=%llu bad_requests=%llu\n",
      static_cast<unsigned long long>(daemon.passes_completed()),
      static_cast<unsigned long long>(daemon.epochs_published()),
      static_cast<unsigned long long>(daemon.http().requests_served()),
      static_cast<unsigned long long>(daemon.http().bad_requests()));
  if (const int mrc = export_metrics(resolve_metrics_out(flags), daemon.registry());
      mrc != 0) {
    return mrc;
  }
  return rc;
}

// "3.2M" / "1.4 GiB" style figures for the gen summary lines.  Sizing a
// substrate is the whole point of the summary; raw digit strings at 10^9
// samples are unreadable.
std::string human_count(double v) {
  if (v >= 1e9) return strformat("%.1fG", v / 1e9);
  if (v >= 1e6) return strformat("%.1fM", v / 1e6);
  if (v >= 1e3) return strformat("%.1fk", v / 1e3);
  return strformat("%.0f", v);
}

std::string human_bytes(double v) {
  if (v >= 1024.0 * 1024.0 * 1024.0) return strformat("%.1f GiB", v / (1024.0 * 1024.0 * 1024.0));
  if (v >= 1024.0 * 1024.0) return strformat("%.1f MiB", v / (1024.0 * 1024.0));
  if (v >= 1024.0) return strformat("%.1f KiB", v / 1024.0);
  return strformat("%.0f B", v);
}

int cmd_gen(int argc, const char* const* argv) {
  Flags flags("afixp gen",
              "expand a topology spec into an IXP substrate; summarize, run, or bench it");
  flags.add_string("spec", "continent100",
                   "preset name or spec-file path (see --list-presets, docs/SCALING.md)");
  flags.add_bool("list-presets", false, "list the built-in spec presets and exit");
  flags.add_bool("print", false, "print the resolved spec in canonical form and exit");
  flags.add_bool("run", false,
                 "run the generated fleet end to end (columnar RTT storage engaged)");
  flags.add_bool("bench", false,
                 "benchmark the run and write the BENCH_substrate.json record (--out)");
  flags.add_bool("shard-plan", false, "print the cost model's predicted shard packing");
  flags.add_int("seed", 0, "override the spec's seed (0 = keep)");
  flags.add_int("days", 0, "override the campaign length in days (0 = the spec's)");
  flags.add_int("round-minutes", 5, "TSLP probing cadence");
  flags.add_int("jobs", 0, "campaigns to run in parallel (0 = IXP_JOBS, else hardware)");
  flags.add_string("out", "BENCH_substrate.json", "--bench output JSON path (empty = stdout)");
  flags.add_string("metrics-out", "",
                   "fleet metrics registry export path (default IXP_METRICS; empty = off)");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text() << "\n" << kEnvHelp;
    return 0;
  }
  if (flags.get_bool("list-presets")) {
    for (const auto& name : topo::topo_spec_preset_names()) {
      const auto p = *topo::topo_spec_preset(name);
      std::cout << strformat("  %-12s %3d IXPs, %2d days, members.dist=%s\n", name.c_str(),
                             p.ixps, p.days, p.members_dist.c_str());
    }
    return 0;
  }

  // The spec argument is a preset name first, a file path second -- so the
  // documented tiers never depend on the working directory.
  const std::string spec_arg = flags.get_string("spec");
  std::optional<topo::TopoSpec> spec = topo::topo_spec_preset(spec_arg);
  if (!spec) {
    std::string error;
    spec = topo::load_topo_spec(spec_arg, &error);
    if (!spec) {
      std::cerr << "--spec '" << spec_arg << "' is neither a preset nor a spec file: "
                << error << "\n";
      return 2;
    }
  }
  if (flags.get_int("seed") > 0) spec->seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (flags.get_int("days") > 0) spec->days = static_cast<int>(flags.get_int("days"));
  if (flags.get_bool("print")) {
    std::cout << topo::topo_spec_to_string(*spec);
    return 0;
  }

  if (flags.get_bool("bench")) {
    analysis::SubstrateBenchOptions bopt;
    bopt.jobs = static_cast<int>(flags.get_int("jobs"));
    bopt.round_interval = kMinute * flags.get_int("round-minutes");
    const auto report = analysis::run_substrate_benchmark(*spec, bopt, &std::cerr);
    const auto out_path = flags.get_string("out");
    if (out_path.empty()) {
      analysis::write_substrate_bench_json(std::cout, report);
      return 0;
    }
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    analysis::write_substrate_bench_json(out, report);
    std::cout << "bench record: " << out_path << "\n";
    return 0;
  }

  const auto vps = analysis::generate_substrate(*spec);
  const auto summary = analysis::summarize_substrate(*spec, vps);
  const Duration interval = kMinute * flags.get_int("round-minutes");
  std::cout << strformat(
      "%s: %d IXPs, %d members (%d silent, %d congested, %d noisy), "
      "%llu monitored links (%llu LAN + %llu ptp)\n",
      spec->name.c_str(), summary.ixps, summary.members, summary.silent_members,
      summary.congested_members, summary.noisy_members,
      static_cast<unsigned long long>(summary.monitored_links()),
      static_cast<unsigned long long>(summary.lan_links),
      static_cast<unsigned long long>(summary.ptp_links));
  std::cout << strformat(
      "%d-day campaign at %lld-min rounds: ~%s samples (%s raw)\n", spec->days,
      static_cast<long long>(interval.count() / kMinute.count()),
      human_count(static_cast<double>(summary.samples(kDay * spec->days, interval))).c_str(),
      human_bytes(static_cast<double>(summary.samples(kDay * spec->days, interval)) * 8).c_str());

  analysis::FleetOptions fopt;
  fopt.jobs = static_cast<int>(flags.get_int("jobs"));
  fopt.campaign.round_interval = interval;
  fopt.campaign.columnar = true;
  if (flags.get_bool("shard-plan") && !flags.get_bool("run")) {
    const int jobs = ThreadPool::resolve_jobs(fopt.jobs, vps.size());
    std::cout << analysis::plan_shards(vps, jobs, fopt.campaign).to_string(vps);
    return 0;
  }
  if (!flags.get_bool("run")) return 0;

  obs::Registry metrics_reg;
  analysis::FleetStatusPrinter status(std::cerr, vps);
  fopt.on_progress = [&status](const analysis::CampaignMetrics& m) { status(m); };
  auto fleet = analysis::run_fleet(vps, fopt);
  status.finish();
  analysis::print_fleet_metrics(std::cerr, fleet);
  if (flags.get_bool("shard-plan")) std::cout << fleet.plan.to_string(vps);

  std::uint64_t links = 0, congested = 0, resident = 0, raw = 0;
  for (const auto& r : fleet.results) {
    links += r.series.size();
    congested += r.congested();
    if (r.columns != nullptr) {
      resident += r.columns->resident_bytes();
      raw += r.columns->raw_bytes();
    }
  }
  std::cout << strformat(
      "ran %zu campaigns: %llu monitored links, %llu congested; "
      "series store %s resident (%s raw, %.1fx)\n",
      vps.size(), static_cast<unsigned long long>(links),
      static_cast<unsigned long long>(congested),
      human_bytes(static_cast<double>(resident)).c_str(),
      human_bytes(static_cast<double>(raw)).c_str(),
      resident > 0 ? static_cast<double>(raw) / static_cast<double>(resident) : 0.0);
  return export_metrics(resolve_metrics_out(flags), fleet.registry);
}

int cmd_casebook(int argc, const char* const* argv) {
  Flags flags("afixp casebook", "print the documented §6.2 case studies");
  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.help_text();
    return 0;
  }
  for (const auto& cs : analysis::casebook()) {
    std::cout << cs.id << " (" << cs.vp << ")\n";
    std::cout << "  A_w " << cs.expected_a_w_ms << " ms, dt_UD "
              << format_duration(cs.expected_dt_ud) << ", "
              << (cs.sustained ? "sustained" : "transient") << "\n";
    std::cout << "  cause: " << cs.cause << "\n\n";
  }
  return 0;
}

// The full subcommand set, in help order.  main() dispatches from this one
// table, so the usage text, `afixp help`, and the dispatch can never list
// different commands (tools/check_cli.sh pins that).
struct Command {
  const char* name;
  const char* summary;
  int (*fn)(int argc, const char* const* argv);
};

constexpr Command kCommands[] = {
    {"campaign", "run one of the paper's six VP campaigns", &cmd_campaign},
    {"analyze", "re-analyse a warts-lite capture with different detector settings",
     &cmd_analyze},
    {"tables", "regenerate the paper's Table 1 and Table 2 across the VP fleet",
     &cmd_tables},
    {"casebook", "print the documented §6.2 case studies", &cmd_casebook},
    {"selftest", "golden-regression checks of the statistics path", &cmd_selftest},
    {"bench", "probe hot-path benchmark harness (BENCH_sim.json)", &cmd_bench},
    {"chaos", "run the VP fleet under a fault plan and score the classifier",
     &cmd_chaos},
    {"gen", "expand a topology spec into an IXP substrate and run or bench it",
     &cmd_gen},
    {"serve", "run the always-on congestion observatory over HTTP", &cmd_serve},
};

void print_usage(std::ostream& out) {
  out << "usage: afixp <command> [flags]\n\ncommands:\n";
  for (const Command& c : kCommands) {
    out << strformat("  %-9s %s\n", c.name, c.summary);
  }
  out << "\nrun 'afixp <command> --help' for the command's flags\n\n" << kEnvHelp;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    print_usage(std::cout);
    return 0;
  }
  for (const Command& c : kCommands) {
    if (cmd == c.name) return c.fn(argc - 1, argv + 1);
  }
  std::cerr << "unknown command '" << cmd << "'\n\n";
  print_usage(std::cerr);
  return 2;
}
