// serve-mixed: the README's publish-and-serve path under open-loop
// loopback traffic, plus the serving pieces the batch workloads reuse
// for their served-answer check.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using gpumine::serve::QueryEngine;
using gpumine::serve::RequestHandler;

constexpr std::int64_t kSecond = 1'000'000'000;

// Publishing is `gpumine snapshot --csv pai.csv` with default flags.
const MineFlags kSnapshotFlags{};
constexpr std::size_t kServerWorkers = 2;
constexpr double kFixedRate = 4000.0;  // req/s for query_p50/p99
// Only the ~50 most frequent items have rules (bodies of 10-500 KB);
// the rest answer a few bytes. With exponent 0.8 about a third of the
// queries hit rule-bearing keywords, so the median sits inside the
// small-body mode and p90 inside the large-body one; at 1.0 the median
// fell on the boundary between the two and moved with every seed.
constexpr double kZipfExponent = 0.8;
constexpr double kUnknownShare = 0.02;
constexpr double kSupportShare = 0.10;
constexpr std::size_t kUnknownNames = 16;
constexpr std::size_t kPairPoolItems = 48;
// Reloads start 0.5 s into the reload phase, every 4 s, while a whole
// engine build (3-4 s on the 60k PAI snapshot) still fits in the phase.
constexpr std::int64_t kFirstReloadNs = kSecond / 2;
constexpr std::int64_t kReloadCadenceNs = 4 * kSecond;
constexpr std::int64_t kReloadRoomNs = 3 * kSecond + kSecond / 2;
// Sends not started this long after a phase's last due time are abandoned.
constexpr double kSendGraceSeconds = 2.0;
constexpr double kLadderStepSeconds = 0.5;
constexpr double kLagGrowthUs = 1000.0;
// The SLO the rate ladder holds p99 to. A 2 ms limit flipped on noise in
// 4 s prototype runs (p99 up to 6.3 ms at 1,000 req/s).
constexpr double kSloP99Us = 5000.0;
const std::vector<double> kLadder{2000, 2800, 4000, 5600, 8000, 11200, 16000};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The traffic mix over one engine: every vocabulary name (Zipf-skewed
/// by item-support rank), a few unknown names (404), and /support
/// probes over frequent pairs. Expected replies come from a second
/// handler over the same engine, so the server's counters stay exact.
struct Mix {
  std::vector<Target> targets;
  std::vector<std::string> bodies;  // targets[i].body -> bodies[i]
  std::vector<double> weights;
  std::string known_bodies;  // every known /query body, rank order
};

Mix build_mix(const Published& published, Report& report) {
  const QueryEngine& engine = *published.engine;
  const gpumine::core::ItemCatalog& catalog = engine.catalog();
  std::vector<std::pair<std::uint64_t, gpumine::core::ItemId>> ranked;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto id = static_cast<gpumine::core::ItemId>(i);
    const gpumine::core::ItemId one[1] = {id};
    ranked.emplace_back(engine.support_index().find(one).value_or(0), id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  Mix mix;
  double zipf_total = 0.0;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    zipf_total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
  }
  const double query_share = 1.0 - kUnknownShare - kSupportShare;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const std::string& name = catalog.name(ranked[r].second);
    mix.targets.push_back({Target::Kind::kQuery, "GET",
                           "/query?keyword=" + percent_encode(name), 200,
                           nullptr});
    mix.weights.push_back(query_share / zipf_total /
                          std::pow(static_cast<double>(r + 1), kZipfExponent));
  }
  for (std::size_t u = 0; u < kUnknownNames; ++u) {
    mix.targets.push_back({Target::Kind::kQuery, "GET",
                           "/query?keyword=" +
                               percent_encode("No Such Item = " +
                                              std::to_string(u)),
                           404, nullptr});
    mix.weights.push_back(kUnknownShare / kUnknownNames);
  }
  std::vector<std::string> pairs;
  const std::size_t pool = std::min(kPairPoolItems, ranked.size());
  for (std::size_t a = 0; a < pool; ++a) {
    for (std::size_t b = a + 1; b < pool; ++b) {
      gpumine::core::ItemId both[2] = {ranked[a].second, ranked[b].second};
      std::sort(both, both + 2);
      if (engine.support_index().find(both).has_value()) {
        pairs.push_back("/support?items=" +
                        percent_encode(catalog.name(ranked[a].second)) + "," +
                        percent_encode(catalog.name(ranked[b].second)));
      }
    }
  }
  for (const std::string& pair : pairs) {
    mix.targets.push_back({Target::Kind::kSupport, "GET", pair, 200, nullptr});
    mix.weights.push_back(kSupportShare / static_cast<double>(pairs.size()));
  }

  RequestHandler reference(published.engine, "");
  mix.bodies.resize(mix.targets.size());
  for (std::size_t i = 0; i < mix.targets.size(); ++i) {
    Target& target = mix.targets[i];
    const gpumine::serve::HttpResponse response =
        reference.handle(target.method, target.target);
    if (response.status != target.status) {
      report.fail(target.target + ": reference handler answered " +
                  std::to_string(response.status));
    }
    mix.bodies[i] = response.body;
    target.body = &mix.bodies[i];
  }
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    const std::string* json = engine.query_json(catalog.name(ranked[r].second));
    if (json == nullptr || *json != mix.bodies[r]) {
      report.fail("handler body differs from QueryEngine::query_json for " +
                  catalog.name(ranked[r].second));
      continue;
    }
    mix.known_bodies += *json;
  }
  return mix;
}

std::vector<Planned> make_plan(const Mix& mix, double rate, double seconds,
                               std::mt19937_64& rng) {
  std::discrete_distribution<std::uint32_t> pick(mix.weights.begin(),
                                                 mix.weights.end());
  const auto count = static_cast<std::size_t>(rate * seconds);
  std::vector<Planned> plan(count);
  for (std::size_t i = 0; i < count; ++i) {
    plan[i].due_ns = static_cast<std::int64_t>(static_cast<double>(i) *
                                               1e9 / rate);
    plan[i].target = pick(rng);
  }
  return plan;
}

}  // namespace

void save_snapshot(MinedTrace trace, const std::string& path,
                   SpanRecorder& spans) {
  gpumine::core::RuleSnapshot snapshot;
  {
    Span span(spans, "core.snapshot_build");
    snapshot = gpumine::core::build_rule_snapshot(
        std::move(trace.mined), std::move(trace.catalog), trace.rules,
        trace.pruning);
  }
  Span span(spans, "core.snapshot_save");
  const auto saved = gpumine::core::save_rule_snapshot_file(snapshot, path);
  if (!saved.ok()) throw std::runtime_error(saved.error().to_string());
}

std::shared_ptr<const QueryEngine> load_engine(const std::string& path,
                                               SpanRecorder& spans) {
  gpumine::core::RuleSnapshot loaded;
  {
    Span span(spans, "core.snapshot_load");
    auto result = gpumine::core::load_rule_snapshot_file(path);
    if (!result.ok()) throw std::runtime_error(result.error().to_string());
    loaded = std::move(result).value();
  }
  Span span(spans, "serve.engine_build");
  return std::make_shared<const QueryEngine>(std::move(loaded));
}

Published start_serving(std::shared_ptr<const QueryEngine> engine,
                        const std::string& path, std::size_t workers,
                        SpanRecorder& spans) {
  Published out;
  out.engine = std::move(engine);
  out.handler = std::make_unique<RequestHandler>(out.engine, path);
  {
    Span span(spans, "serve.server_start");
    gpumine::serve::ServerConfig config;
    config.num_threads = workers;
    out.server =
        std::make_unique<gpumine::serve::Server>(*out.handler, config);
    const auto started = out.server->start();
    if (!started.ok()) throw std::runtime_error(started.error().to_string());
  }
  {
    Span span(spans, "serve.healthz");
    HttpClient client(out.server->port());
    const HttpReply reply = client.request("GET", "/healthz");
    out.healthy = reply.transport_ok && reply.status == 200 &&
                  reply.body == "ok\n";
  }
  return out;
}

LoadStats run_load(const Published& published,
                   const std::vector<Target>& targets,
                   const std::vector<Planned>& plan,
                   const std::vector<std::int64_t>& reload_offsets_ns,
                   std::int64_t send_deadline_ns,
                   std::uint64_t first_request_id, SpanRecorder& spans) {
  const std::uint16_t port = published.server->port();
  const std::string reload_body =
      "{\"reloaded\":true,\"rules\":" +
      std::to_string(published.engine->num_rules()) + "}";
  const std::int64_t start = now_ns() + 20'000'000;

  struct ReloadCall {
    std::int64_t sent_ns = 0;
    std::int64_t done_ns = 0;
    bool replied = false;
    bool ok = false;
    int status = 0;
  };
  std::vector<ReloadCall> reloads(reload_offsets_ns.size());
  std::optional<PhaseResult> phase;
  {
    std::jthread reloader([&] {
      HttpClient client(port);
      for (std::size_t r = 0; r < reloads.size(); ++r) {
        sleep_until_ns(start + reload_offsets_ns[r]);
        Span op(spans, "op.reload");
        reloads[r].sent_ns = now_ns();
        HttpReply reply;
        {
          Span wire(spans, "http.reload");
          reply = client.request("POST", "/reload");
        }
        reloads[r].done_ns = now_ns();
        reloads[r].replied = reply.transport_ok;
        reloads[r].status = reply.status;
        reloads[r].ok = reply.transport_ok && reply.status == 200 &&
                        reply.body == reload_body;
      }
    });
    PhaseConfig config;
    config.send_deadline_ns = send_deadline_ns;
    config.first_request_id = first_request_id;
    if (spans.enabled()) config.untraced_period_ns = kSecond;
    phase = run_open_loop(port, targets, plan, start, config, spans);
  }  // joins the reload caller

  LoadStats stats;
  stats.connections = phase->connections;
  std::int64_t last_done = start;
  for (const Outcome& out : phase->outcomes) {
    last_done = std::max(last_done, out.done_ns);
  }
  stats.errors = phase->first_errors;
  stats.attempted = plan.size() + reloads.size();
  constexpr auto kReload = static_cast<std::size_t>(Target::Kind::kReload);
  for (const ReloadCall& call : reloads) {
    if (call.replied) {
      ++stats.counts.replies[kReload];
      if (call.status / 100 != 2) ++stats.counts.non2xx[kReload];
    }
    if (!call.ok) {
      ++stats.failed;
      if (call.replied) ++stats.wrong;
      stats.errors.push_back("POST /reload failed (status " +
                             std::to_string(call.status) + ")");
    }
    stats.reload_ms.push_back(
        static_cast<double>(call.done_ns - call.sent_ns) / 1e6);
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Outcome& out = phase->outcomes[i];
    if (!out.sent) {
      ++stats.failed;  // still unsent when the phase ended
      continue;
    }
    ++stats.sent;
    const auto kind = static_cast<std::size_t>(targets[plan[i].target].kind);
    if (out.replied) {
      ++stats.counts.replies[kind];
      if (out.status / 100 != 2) ++stats.counts.non2xx[kind];
    }
    if (!out.ok) {
      ++stats.failed;
      if (out.replied) ++stats.wrong;
    }
    stats.lag_us.push_back(out.lag_us());
    const bool reloading =
        std::any_of(reloads.begin(), reloads.end(), [&](const ReloadCall& r) {
          return out.due_ns >= r.sent_ns && out.due_ns <= r.done_ns;
        });
    if (reloading) {
      stats.latency_reloading_us.push_back(out.latency_us());
      continue;
    }
    stats.latency_us.push_back(out.latency_us());
    stats.service_us.push_back(out.service_us());
    (out.traced ? stats.service_traced_us : stats.service_untraced_us)
        .push_back(out.service_us());
  }
  if (last_done > start) {
    stats.achieved_rate = static_cast<double>(stats.sent) /
                          (static_cast<double>(last_done - start) / 1e9);
  }
  return stats;
}

void reconcile_counters(RequestHandler& handler, const EndpointCounts& client,
                        std::uint64_t health_checks, Report& report) {
  const gpumine::serve::MetricsSnapshot server = handler.metrics().snapshot();
  const auto check = [&](const std::string& what, std::uint64_t client_count,
                         std::uint64_t server_count) {
    if (client_count != server_count) {
      report.fail("counter mismatch: " + what + " client=" +
                  std::to_string(client_count) + " server=" +
                  std::to_string(server_count));
    }
  };
  const char* names[4] = {"query", "support", "health", "reload"};
  for (std::size_t k = 0; k < 4; ++k) {
    const auto it = std::find_if(
        server.endpoints.begin(), server.endpoints.end(),
        [&](const auto& e) { return e.name == names[k]; });
    const bool found = it != server.endpoints.end();
    check(std::string(names[k]) + " requests",
          client.replies[k] + (k == 2 ? health_checks : 0),
          found ? it->requests : 0);
    check(std::string(names[k]) + " non-2xx", client.non2xx[k],
          found ? it->errors : 0);
  }
  check("reloads", client.replies[3] - client.non2xx[3], server.reloads);
}

std::pair<double, double> handler_latency_us(const Published& published,
                                             const std::vector<Target>& targets,
                                             const std::vector<Planned>& plan,
                                             std::size_t limit,
                                             SpanRecorder& spans) {
  RequestHandler probe(published.engine, "");
  std::vector<double> micros;
  const std::size_t n = std::min(limit, plan.size());
  micros.reserve(n);
  Span op(spans, "op.handler_probe");
  for (std::size_t i = 0; i < n; ++i) {
    const Target& target = targets[plan[i].target];
    const std::int64_t begin = now_ns();
    static_cast<void>(probe.handle(target.method, target.target));
    micros.push_back(static_cast<double>(now_ns() - begin) / 1e3);
  }
  return {quantile(micros, 0.5), quantile(micros, 0.99)};
}

void add_mining_counts(const MinedTrace& trace, Report& report) {
  const gpumine::core::MiningMetrics& m = trace.mined.metrics;
  double busy = 0.0;
  for (const double s : m.worker_busy_seconds) busy += s;
  const double capacity = static_cast<double>(m.num_workers) * m.wall_seconds;
  report.set("prep.rows", static_cast<double>(trace.rows), "count");
  report.set("prep.items", static_cast<double>(trace.catalog.size()), "count");
  report.set("core.dedup_ratio",
             static_cast<double>(trace.rows) /
                 static_cast<double>(trace.distinct_rows),
             "ratio");
  report.set("core.itemsets", static_cast<double>(trace.mined.itemsets.size()),
             "count");
  report.set("core.mine_busy_ratio", capacity > 0.0 ? busy / capacity : 0.0,
             "ratio");
  report.set("core.tasks_spawned", static_cast<double>(m.tasks_spawned),
             "count");
  report.set("core.tasks_stolen", static_cast<double>(m.tasks_stolen),
             "count");
  report.set("core.peak_arena_mb",
             static_cast<double>(m.peak_arena_bytes) / (1024.0 * 1024.0), "MB");
}

void add_answer_counts(const KeywordAnswer& answer, Report& report) {
  report.set("core.rule_yield",
             answer.stage.candidate_rules == 0
                 ? 0.0
                 : static_cast<double>(answer.stage.rules_generated) /
                       static_cast<double>(answer.stage.candidate_rules),
             "ratio");
  report.set("core.prune_pair_comparisons",
             static_cast<double>(answer.prune.pair_comparisons), "count");
  report.set("core.rules_kept", static_cast<double>(answer.prune.kept),
             "count");
  report.set("analysis.response_bytes", static_cast<double>(answer.json.size()),
             "bytes");
}

void add_layer_timings(const SpanRecorder& spans,
                       const std::vector<std::string>& roots, Report& report) {
  const std::pair<const char*, const char*> layers[] = {
      {"prep.csv", "prep.csv_ms"},
      {"prep.prepare", "prep.prepare_ms"},
      {"core.dedup", "core.dedup_ms"},
      {"core.mine", "core.mine_ms"},
      {"core.rules", "core.rules_ms"},
      {"core.prune", "core.prune_ms"},
      {"analysis.render", "analysis.render_ms"},
      {"core.snapshot_build", "core.snapshot_build_ms"},
      {"core.snapshot_save", "core.snapshot_save_ms"},
      {"core.snapshot_load", "core.snapshot_load_ms"},
      {"serve.engine_build", "serve.engine_build_ms"},
  };
  for (const auto& [span, metric] : layers) {
    std::vector<double> ms;
    for (const std::string& root : roots) {
      ms = spans.durations_ms_under(span, root);
      if (!ms.empty()) break;
    }
    report.set(metric, median(ms), "ms");
  }
}

void add_serve_layer_metrics(const Published& published,
                             const LoadStats& queries,
                             std::pair<double, double> handler_us,
                             Report& report) {
  const QueryEngine& engine = *published.engine;
  const gpumine::serve::MetricsSnapshot server =
      published.handler->metrics().snapshot();
  std::uint64_t server_errors = 0;
  for (const auto& e : server.endpoints) server_errors += e.errors;
  report.set("serve.items", static_cast<double>(engine.catalog().size()),
             "count");
  report.set("serve.keywords_with_rules",
             static_cast<double>(engine.num_keywords_with_rules()), "count");
  report.set("serve.handler_p50_us", handler_us.first, "us");
  report.set("serve.handler_p99_us", handler_us.second, "us");
  report.set("serve.transport_p50_us",
             median(queries.service_us) - handler_us.first, "us");
  report.set("serve.connections_per_request",
             queries.sent == 0 ? 0.0
                               : static_cast<double>(queries.connections) /
                                     static_cast<double>(queries.sent),
             "ratio");
  report.set("serve.sched_lag_p99_us", quantile(queries.lag_us, 0.99), "us");
  report.set("serve.requests", static_cast<double>(server.total_requests),
             "count");
  report.set("serve.errors", static_cast<double>(server_errors), "count");
  report.set("serve.query_p50_us", median(queries.latency_us), "us");
  report.set("serve.query_p99_us", quantile(queries.latency_us, 0.99), "us");
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base == 0.0 ? 0.0 : (median(traced) - base) / base * 100.0;
}

void finish_trace(const SpanRecorder& spans,
                  const std::vector<std::string>& roots, double overhead,
                  const std::string& path, Report& report) {
  const std::map<std::string, double> self = spans.self_ms_by_layer();
  for (const char* layer : {"prep", "core", "analysis", "serve", "op"}) {
    const auto it = self.find(layer);
    report.set(std::string("trace.self_ms.") + layer,
               it == self.end() ? 0.0 : it->second, "ms");
  }
  report.set("trace.attribution", spans.attribution(roots), "ratio");
  report.set("trace.overhead_pct", overhead, "%");
  report.set("trace.spans", static_cast<double>(spans.size()), "count");
  if (!spans.write_chrome_trace(path)) {
    report.fail("cannot write the Chrome trace to " + path);
    return;
  }
  try {
    static_cast<void>(run_cli({"trace-check", "--file", path}));
  } catch (const std::exception& e) {
    report.fail(e.what());
  }
}

namespace {

// Set-up: CSV -> snapshot file -> loaded engine -> first /healthz 200.
// Untraced, the snapshot is written by `gpumine snapshot` itself; the
// traced run makes it through the split pipeline, under spans.
Published set_up_serving(const Options& options, const std::string& snap_path,
                         SpanRecorder& spans, Report* report) {
  if (spans.enabled()) {
    MinedTrace mined = mine_csv(options.csv, kSnapshotFlags, spans);
    if (report != nullptr) add_mining_counts(mined, *report);
    save_snapshot(std::move(mined), snap_path, spans);
  } else {
    static_cast<void>(
        run_cli({"snapshot", "--csv", options.csv, "--out", snap_path}));
  }
  return start_serving(load_engine(snap_path, spans), snap_path,
                       kServerWorkers, spans);
}

}  // namespace

double cold_serve_setup(const Options& options) {
  SpanRecorder spans;
  const std::int64_t begin = now_ns();
  Published published =
      set_up_serving(options, options.work_dir + "/cold-serve.snap", spans,
                     nullptr);
  const double seconds = static_cast<double>(now_ns() - begin) / 1e9;
  if (!published.healthy) throw std::runtime_error("first /healthz failed");
  return seconds;
}

Report run_serve_mixed(const Options& options) {
  Report report;
  SpanRecorder spans;
  if (options.trace) spans.enable();
  const std::string snap_path = options.work_dir + "/serve-mixed.snap";

  const std::int64_t setup_begin = now_ns();
  Published published;
  {
    Span op(spans, "op.setup");
    published = set_up_serving(options, snap_path, spans, &report);
  }
  report.setup_s = static_cast<double>(now_ns() - setup_begin) / 1e9;
  report.attempted += 1;
  if (!published.healthy) {
    report.failed += 1;
    report.fail("first GET /healthz did not answer 200 ok");
  }

  const Mix mix = build_mix(published, report);
  std::mt19937_64 rng(options.seed);

  // Phase 1: the fixed open-loop rate, no reloads: query_p50/p99.
  const double steady_seconds = 0.2 * options.seconds;
  const std::vector<Planned> steady_plan =
      make_plan(mix, kFixedRate, steady_seconds, rng);
  std::uint64_t next_id = 1;
  EndpointCounts counted;
  // `abandon_ok`: requests left unsent because the generator fell
  // behind fail the ladder step, not the run (wrong replies still do).
  const auto run_phase = [&](const std::vector<Planned>& plan,
                             const std::vector<std::int64_t>& reloads,
                             double deadline_seconds, bool abandon_ok) {
    LoadStats stats = run_load(
        published, mix.targets, plan, reloads,
        static_cast<std::int64_t>(deadline_seconds * 1e9), next_id, spans);
    next_id += plan.size();
    const std::uint64_t abandoned = abandon_ok ? plan.size() - stats.sent : 0;
    report.attempted += stats.attempted - abandoned;
    report.failed += stats.failed - abandoned;
    if (stats.wrong != 0) report.fail("wrong replies from the server");
    report.problems.insert(report.problems.end(), stats.errors.begin(),
                           stats.errors.end());
    counted.add(stats.counts);
    return stats;
  };
  const LoadStats steady = run_phase(
      steady_plan, {}, steady_seconds + kSendGraceSeconds, false);

  // Phase 2: the same rate while the reload caller sends POST /reload
  // (writes beside the reads): reload_ms and the p99 of queries that
  // were due while a reload was in flight. The first reload of a run is
  // up to 40% slower than the next ones (3.8 s against 2.7 s), so the
  // phase is long enough for four.
  const double reload_seconds =
      std::max(0.8 * options.seconds,
               static_cast<double>(kFirstReloadNs + kReloadRoomNs) / 1e9);
  std::vector<std::int64_t> reload_offsets;
  for (std::int64_t at = kFirstReloadNs;
       at + kReloadRoomNs <= static_cast<std::int64_t>(reload_seconds * 1e9);
       at += kReloadCadenceNs) {
    reload_offsets.push_back(at);
  }
  const LoadStats reloading =
      run_phase(make_plan(mix, kFixedRate, reload_seconds, rng),
                reload_offsets, reload_seconds + kSendGraceSeconds, false);

  // Phase 3: the rate ladder, no reloads. A step passes when every
  // request was sent and answered correctly, p99 from due time stays
  // within the SLO, and the generator's lag did not grow over the step.
  // The first step that fails ends the ladder.
  double qps_at_slo = 0.0;
  for (const double rate : kLadder) {
    const std::vector<Planned> plan =
        make_plan(mix, rate, kLadderStepSeconds, rng);
    const LoadStats step =
        run_phase(plan, {}, kLadderStepSeconds + kSendGraceSeconds, true);
    const auto quarter = static_cast<std::ptrdiff_t>(step.lag_us.size() / 4);
    const bool lag_grew =
        quarter == 0 ||
        median({step.lag_us.end() - quarter, step.lag_us.end()}) >
            median({step.lag_us.begin(), step.lag_us.begin() + quarter}) +
                kLagGrowthUs;
    if (step.sent != plan.size() || step.failed != 0 || lag_grew ||
        quantile(step.latency_us, 0.99) > kSloP99Us) {
      break;
    }
    qps_at_slo = step.achieved_rate;
  }
  const double rss_mb = peak_rss_mb();

  std::pair<double, double> handler_us{0.0, 0.0};
  if (options.trace) {
    handler_us =
        handler_latency_us(published, mix.targets, steady_plan, 20000, spans);
  }
  published.server->stop();
  reconcile_counters(*published.handler, counted, 1, report);

  // The snapshot the split pipeline wrote must be byte-identical to the
  // one `gpumine snapshot` writes (untraced, it is that one), and the
  // batch code path must answer the two most popular keywords that have
  // rules with the engine's bytes.
  const std::string snap_bytes = read_file(snap_path);
  if (options.trace) {
    const std::string cli_snap = options.work_dir + "/serve-mixed.cli.snap";
    static_cast<void>(
        run_cli({"snapshot", "--csv", options.csv, "--out", cli_snap}));
    if (snap_bytes != read_file(cli_snap)) {
      report.fail("snapshot differs from `gpumine snapshot` output");
    }
  }
  report.digests["snapshot"] = fnv1a_hex(snap_bytes);
  report.digests["responses"] = fnv1a_hex(mix.known_bodies);
  {
    Span op(spans, "op.check");
    auto loaded = gpumine::core::load_rule_snapshot_file(snap_path);
    if (!loaded.ok()) throw std::runtime_error(loaded.error().to_string());
    MinedTrace trace;
    trace.mined = std::move(loaded.value().result);
    trace.catalog = std::move(loaded.value().catalog);
    std::size_t checked = 0;
    const std::string prefix = "/query?keyword=";
    for (std::size_t i = 0; i < mix.targets.size() && checked < 2; ++i) {
      if (mix.targets[i].kind != Target::Kind::kQuery ||
          mix.targets[i].status != 200) {
        continue;
      }
      const std::string name = gpumine::serve::url_decode(
          std::string_view(mix.targets[i].target).substr(prefix.size()));
      const gpumine::core::KeywordAnalysis* served =
          published.engine->query(name);
      if (served->cause.empty() && served->characteristic.empty()) continue;
      const KeywordAnswer answer = answer_keyword(trace, name, spans);
      if (answer.json != *published.engine->query_json(name)) {
        report.fail("mined-trace answer differs from the engine for " + name);
      }
      if (answer.prune.kept != answer.cause_rows + answer.characteristic_rows) {
        report.fail("rules_kept != cause + characteristic rows for " + name);
      }
      if (checked++ == 0) add_answer_counts(answer, report);
    }
  }
  report.note("query_p50_us", median(steady.latency_us), "us");
  report.note("query_p99_us", quantile(steady.latency_us, 0.99), "us");
  report.note("query_qps_at_slo", qps_at_slo, "1/s");
  report.note("reload_ms_p50", median(reloading.reload_ms), "ms");
  report.note("query_p99_us_reloading",
              quantile(reloading.latency_reloading_us, 0.99), "us");
  report.note("requests_at_fixed_rate", static_cast<double>(steady.sent),
              "count");
  report.note("reloads", static_cast<double>(reloading.reload_ms.size()),
              "count");

  if (!options.trace) {
    report.metrics.clear();  // the untraced run reports end-to-end only
    report.set("op_ms_p50", median(reloading.reload_ms), "ms");
    report.set("peak_rss_mb", rss_mb, "MB");
    return report;
  }
  add_layer_timings(spans, {"op.setup", "op.check"}, report);
  add_serve_layer_metrics(published, steady, handler_us, report);
  // Attribution is over the set-up only. A request or a reload is one
  // whole client call under one http.* span (client, wire and server
  // together), so its attribution would be 1 by construction.
  finish_trace(spans, {"op.setup"},
               overhead_pct(steady.service_traced_us,
                            steady.service_untraced_us),
               options.work_dir + "/trace-serve-mixed.json", report);
  return report;
}

}  // namespace perfbench
