// `stats` — one-shot observability snapshot: enable metrics, optionally pump
// a JSONL request file through the scheduling service so the instrumentation
// sees real traffic, then print the full metric registry (counters, gauges,
// latency histograms with p50/p90/p99) as pretty JSON. With no --input the
// output is the preregistered metric catalog at zero — a machine-readable
// list of everything the instrumentation can emit.
#include <fstream>
#include <memory>
#include <ostream>
#include <vector>

#include "cli_internal.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/obs/exposition.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/stream/engine.hpp"
#include "pipesched/stream/source.hpp"

namespace pipesched::cli::detail {

int cmdStats(const ArgList& args, std::ostream& out, std::ostream& /*err*/) {
  // --format json (default): pretty JSON with cache stats; --format
  // prometheus: the same registry as text exposition — the offline twin of
  // serve --listen's GET /metrics.
  const std::string format = args.getOr("format", "json");
  if (format != "json" && format != "prometheus") {
    throw UsageError("--format must be 'json' or 'prometheus', not '" + format + "'");
  }

  // Metrics on for the duration of the command only (the CLI is re-entered
  // in-process by tests); reset first so the snapshot reflects this run.
  obs::ScopedMetricsEnabled metricsOn(true);
  obs::registry().reset();
  obs::preregisterStandardMetrics();

  bool ranService = false;
  std::size_t requests = 0;
  std::size_t failed = 0;
  service::CacheStats cache;
  service::CacheStats sub;
  if (const auto path = args.get("input")) {
    const stream::StreamConfig config = streamConfigFromArgs(args);
    stream::JsonlDefaults defaults;
    defaults.sweep =
        service::SweepSpec{args.getSize("points", 24), args.getReal("range", 3)};
    defaults.model =
        args.has("overlap") ? core::CommModel::kOverlapped : core::CommModel::kSequential;
    auto file = std::make_unique<std::ifstream>(*path);
    if (!*file) throw std::runtime_error("cannot open input: " + *path);
    stream::JsonlSource source(std::move(file), defaults);
    std::vector<service::Request> batch;
    while (std::optional<service::Request> request = source.next()) {
      batch.push_back(std::move(*request));
    }
    stream::AsyncScheduler scheduler(config);
    const stream::BatchResult result = stream::solveBatch(scheduler, batch);
    requests = result.stats.requests;
    failed = result.stats.failed;
    cache = scheduler.cacheStats();
    sub = scheduler.subCacheStats();
    ranService = true;
  }
  args.assertConsumed();

  if (format == "prometheus") {
    out << obs::renderSnapshotPrometheus(obs::registry().snapshot());
    return failed == 0 ? 0 : 1;
  }

  io::JsonWriter w(out, /*pretty=*/true);
  w.beginObject();
  w.kv("requests", requests);
  w.key("metrics");
  obs::writeSnapshotJson(obs::registry().snapshot(), w);
  if (ranService) {
    w.key("cache");
    writeCacheStatsJson(w, cache);
    w.key("sub_cache");
    writeCacheStatsJson(w, sub);
  }
  w.endObject();
  out << "\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace pipesched::cli::detail
