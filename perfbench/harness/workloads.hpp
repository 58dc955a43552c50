// The benchmark's workloads. Each returns a Report whose metrics are
// the end-to-end set (untraced run) or the per-layer set (traced run);
// see README.md for what each metric means on each workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client.hpp"
#include "pipeline.hpp"
#include "serve/handler.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string csv;       // the workload's generated trace
  std::string work_dir;  // snapshots and the Chrome trace go here
};

/// pai-mine / philly-mine.
[[nodiscard]] Report run_batch(const Options& options);
/// One cold pipeline in a fresh process: its wall time in seconds.
[[nodiscard]] double cold_batch_setup(const Options& options);
/// serve-mixed.
[[nodiscard]] Report run_serve_mixed(const Options& options);
/// One serve set-up (CSV -> snapshot -> engine -> first /healthz 200)
/// in a fresh process: its wall time in seconds.
[[nodiscard]] double cold_serve_setup(const Options& options);

// ---- Serving pieces shared by the batch check and serve-mixed ----

/// The snapshot half of `gpumine snapshot` on an already mined trace:
/// spans core.snapshot_build, core.snapshot_save.
void save_snapshot(MinedTrace trace, const std::string& path,
                   SpanRecorder& spans);

/// What `gpumine serve --snapshot FILE` builds before it serves: spans
/// core.snapshot_load, serve.engine_build.
[[nodiscard]] std::shared_ptr<const gpumine::serve::QueryEngine> load_engine(
    const std::string& path, SpanRecorder& spans);

/// An engine behind a running loopback server. Members are declared so
/// the server stops before the handler it points at dies.
struct Published {
  std::shared_ptr<const gpumine::serve::QueryEngine> engine;
  std::unique_ptr<gpumine::serve::RequestHandler> handler;
  std::unique_ptr<gpumine::serve::Server> server;
  bool healthy = false;  // first GET /healthz answered 200 "ok\n"
};

/// The rest of `gpumine serve`: handler and server with `workers`
/// threads, then the first GET /healthz. Spans serve.server_start,
/// serve.healthz.
[[nodiscard]] Published start_serving(
    std::shared_ptr<const gpumine::serve::QueryEngine> engine,
    const std::string& path, std::size_t workers, SpanRecorder& spans);

/// Replies the client received per endpoint, and how many were not 2xx;
/// these must equal the server's own ServerMetrics counts.
struct EndpointCounts {
  std::uint64_t replies[4] = {0, 0, 0, 0};  // Target::Kind order
  std::uint64_t non2xx[4] = {0, 0, 0, 0};
  void add(const EndpointCounts& other) {
    for (std::size_t k = 0; k < 4; ++k) {
      replies[k] += other.replies[k];
      non2xx[k] += other.non2xx[k];
    }
  }
};

/// Client-side view of one open-loop phase with a reload caller beside
/// it. Latencies are from each request's due time.
struct LoadStats {
  std::vector<double> latency_us;            // not overlapping a reload
  std::vector<double> latency_reloading_us;  // due while a reload ran
  std::vector<double> lag_us;
  std::vector<double> service_us;  // send -> last byte, not reloading
  std::vector<double> service_traced_us;    // traced runs: spans on
  std::vector<double> service_untraced_us;  // traced runs: spans off
  std::vector<double> reload_ms;
  std::uint64_t attempted = 0;  // requests planned + reloads
  std::uint64_t failed = 0;     // wrong reply, transport error, unsent
  std::uint64_t wrong = 0;      // replied, but not the expected bytes
  std::uint64_t sent = 0;
  double achieved_rate = 0.0;  // sent / (last done - first due), 1/s
  std::uint64_t connections = 0;
  std::vector<std::string> errors;
  EndpointCounts counts;
};

/// Runs `plan` open loop (2 senders) while a reload caller sends
/// POST /reload at each of `reload_offsets_ns`, and summarises. With
/// spans on, alternate seconds run untraced to measure span overhead.
[[nodiscard]] LoadStats run_load(const Published& published,
                                 const std::vector<Target>& targets,
                                 const std::vector<Planned>& plan,
                                 const std::vector<std::int64_t>& reload_offsets_ns,
                                 std::int64_t send_deadline_ns,
                                 std::uint64_t first_request_id,
                                 SpanRecorder& spans);

/// Checks the server's per-endpoint counters against the client's
/// (requests and non-2xx answers, plus the reload counter); every
/// mismatch is recorded on `report`. `health_checks` is the number of
/// GET /healthz the client sent.
void reconcile_counters(gpumine::serve::RequestHandler& handler,
                        const EndpointCounts& client,
                        std::uint64_t health_checks, Report& report);

/// Times RequestHandler::handle in process, on a second handler over
/// the same engine, for the targets in `plan` (at most `limit` calls):
/// returns {p50, p99} in microseconds.
[[nodiscard]] std::pair<double, double> handler_latency_us(
    const Published& published, const std::vector<Target>& targets,
    const std::vector<Planned>& plan, std::size_t limit, SpanRecorder& spans);

/// Adds prep.rows/items and the core mining counters of one mined trace.
void add_mining_counts(const MinedTrace& trace, Report& report);

/// Adds core.rule_yield, core.prune_pair_comparisons, core.rules_kept
/// and analysis.response_bytes for one keyword answer.
void add_answer_counts(const KeywordAnswer& answer, Report& report);

/// Adds the per-layer *_ms medians from the spans: each span name is
/// taken under the first root in `roots` that has it.
void add_layer_timings(const SpanRecorder& spans,
                       const std::vector<std::string>& roots, Report& report);

/// Adds the serve-layer per-layer metrics every traced run reports,
/// from one open-loop phase without reloads.
void add_serve_layer_metrics(const Published& published,
                             const LoadStats& queries,
                             std::pair<double, double> handler_us,
                             Report& report);

/// Adds trace.* metrics (attribution over the `roots` operations) and
/// writes the Chrome trace, which `gpumine trace-check` must accept.
void finish_trace(const SpanRecorder& spans,
                  const std::vector<std::string>& roots, double overhead_pct,
                  const std::string& path, Report& report);

/// (traced - untraced) / untraced medians, in percent.
[[nodiscard]] double overhead_pct(const std::vector<double>& traced,
                                  const std::vector<double>& untraced);

}  // namespace perfbench
