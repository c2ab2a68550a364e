// Service throughput bench: solves a generated multi-regime batch through
// stream::solveBatch at several worker counts, then measures the cache-hit
// speedup of a warm re-run. Emits both a human summary and the
// machine-readable BENCH_service.json tracking the perf trajectory:
//
//   {"benchmark":"perf_service","requests":200,
//    "throughput":[{"threads":1,"requests_per_second":...},...],
//    "speedup_max_threads_vs_1":...,
//    "cache":{"hit_ratio":...,"warm_requests_per_second":...,"warm_speedup":...},
//    "observability":{"warm_disabled_rps":...,"warm_enabled_rps":...,
//      "enabled_over_disabled":...},
//    "portfolio_members":{"members":"all","drop_after":4,
//      "requests_per_second":...,
//      "members_detail":[{"member":"H1-SpMonoP","runs":...,"points":...,
//                         "novel":...,"merged":...,"skipped":...,"dropped":...},...]},
//    "warm_sweep":{"requests":...,"narrow_points":P,"wide_points":2P-1,
//      "cold_seconds":...,"warm_seconds":...,"speedup":...,
//      "sub_hits":...,"sub_units_reused":...}}
//
// "threads" is the scheduler's worker count (--threads LIST). The serving
// path end to end (HTTP clients against serve --listen) is measured by
// perfbench/, not here.
//
// The portfolio_members section races the full member catalog (refiners +
// c2c + exact) with budget-aware dropping on a slice of the batch and
// reports each member's per-member contribution columns.
//
// The warm_sweep section measures cross-request work sharing: the same
// instances swept at P points, then at 2P-1 points over the same range —
// every narrow-grid threshold reappears in the wide grid, so a sub-result
// warm service solves only the 2P-1 minus P fresh thresholds. Reported
// speedup is cold wide-sweep wall over warm wide-sweep wall (same requests,
// byte-identical fronts).
//
// Usage: perf_service [--requests N] [--threads LIST] [--stages N]
//                     [--processors P] [--points N] [--seed S]
//                     [--members-requests N] [--drop-after K]
//                     [--warm-requests N] [--output FILE]
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "pipesched/io/json.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"

namespace {

using namespace pipesched;

std::vector<service::Request> makeBatch(std::size_t requests, std::size_t stages,
                                        std::size_t processors, std::size_t points,
                                        std::uint64_t seed) {
  const workload::ExperimentKind kinds[] = {
      workload::ExperimentKind::kE1BalancedHomComm,
      workload::ExperimentKind::kE2BalancedHetComm,
      workload::ExperimentKind::kE3LargeComputations,
      workload::ExperimentKind::kE4SmallComputations,
  };
  workload::Rng rng(seed);
  std::vector<service::Request> batch;
  batch.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const workload::ExperimentKind kind = kinds[i % 4];
    workload::InstancePair pair = workload::randomInstance(kind, stages, processors, rng);
    std::ostringstream name;
    name << workload::experimentName(kind) << '-' << i;
    batch.push_back(service::Request{std::move(pair.pipeline), std::move(pair.platform),
                                     core::CommModel::kSequential,
                                     service::SweepSpec{points, 3}, name.str()});
  }
  return batch;
}

struct ThroughputSample {
  std::size_t threads = 0;
  double requestsPerSecond = 0;
  double wallSeconds = 0;
};

/// A scheduler with `workers` workers over the given service config.
stream::StreamConfig schedulerConfig(std::size_t workers,
                                     const service::ServiceConfig& serviceConfig) {
  stream::StreamConfig config;
  config.workers = workers;
  config.service = serviceConfig;
  return config;
}

ThroughputSample coldRun(const std::vector<service::Request>& batch, std::size_t threads) {
  service::ServiceConfig coldConfig;
  coldConfig.cacheCapacity = 0;  // cold: measure pure solver throughput
  stream::AsyncScheduler scheduler(schedulerConfig(threads, coldConfig));
  const stream::BatchResult result = stream::solveBatch(scheduler, batch);
  if (result.stats.failed != 0) {
    throw std::runtime_error("perf_service: " + std::to_string(result.stats.failed) +
                             " request(s) failed");
  }
  return {threads, result.stats.requestsPerSecond, result.stats.wallSeconds};
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 200;
  std::size_t stages = 12;
  std::size_t processors = 10;
  std::size_t points = 12;
  std::uint64_t seed = 20070628;
  std::vector<std::size_t> threadCounts = {1, 2, 4};
  std::size_t membersRequests = 40;
  std::size_t dropAfter = 4;
  std::size_t warmRequests = 24;
  std::string output = "BENCH_service.json";
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--requests N] [--threads LIST] [--stages N] [--processors P]"
                 " [--points N] [--seed S] [--members-requests N] [--drop-after K]"
                 " [--warm-requests N] [--output FILE]\n";
    return 2;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--requests") requests = std::stoul(next());
      else if (arg == "--stages") stages = std::stoul(next());
      else if (arg == "--processors") processors = std::stoul(next());
      else if (arg == "--points") points = std::stoul(next());
      else if (arg == "--seed") seed = std::stoull(next());
      else if (arg == "--members-requests") membersRequests = std::stoul(next());
      else if (arg == "--drop-after") dropAfter = std::stoul(next());
      else if (arg == "--warm-requests") warmRequests = std::stoul(next());
      else if (arg == "--output") output = next();
      else if (arg == "--threads") {
        threadCounts.clear();
        std::stringstream ss(next());
        std::string token;
        while (std::getline(ss, token, ',')) threadCounts.push_back(std::stoul(token));
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perf_service: " << e.what() << "\n";
    return usage();
  }
  if (requests == 0 || threadCounts.empty()) {
    std::cerr << "perf_service: --requests and --threads must be non-empty\n";
    return usage();
  }

  const std::vector<service::Request> batch =
      makeBatch(requests, stages, processors, points, seed);
  std::cout << "perf_service: " << requests << " requests (" << stages << " stages, "
            << processors << " processors, " << points << " sweep points)\n";

  std::vector<ThroughputSample> samples;
  for (const std::size_t threads : threadCounts) {
    const ThroughputSample s = coldRun(batch, threads);
    samples.push_back(s);
    std::cout << "  threads=" << s.threads << ": " << s.requestsPerSecond << " req/s ("
              << s.wallSeconds << " s)\n";
  }
  const double speedup =
      samples.size() > 1 && samples.front().requestsPerSecond > 0
          ? samples.back().requestsPerSecond / samples.front().requestsPerSecond
          : 1.0;
  std::cout << "  speedup " << samples.back().threads << "t vs " << samples.front().threads
            << "t: " << speedup << "x\n";

  // Cache-hit speedup: same scheduler, same batch twice; the second pass is
  // pure cache traffic. Inline (0 workers): a hit costs microseconds, so a
  // worker hand-off per hit would measure thread wake-ups, not the service.
  service::ServiceConfig warmConfig;
  warmConfig.cacheCapacity = requests * 2;
  stream::AsyncScheduler warmScheduler(schedulerConfig(0, warmConfig));
  const stream::BatchResult coldPass = stream::solveBatch(warmScheduler, batch);
  const stream::BatchResult warmPass = stream::solveBatch(warmScheduler, batch);
  const service::CacheStats cacheStats = warmScheduler.cacheStats();
  const double warmSpeedup = coldPass.stats.wallSeconds > 0 && warmPass.stats.wallSeconds > 0
                                 ? coldPass.stats.wallSeconds / warmPass.stats.wallSeconds
                                 : 1.0;
  const double hitRatio =
      warmPass.stats.requests > 0
          ? static_cast<double>(warmPass.stats.cacheHits + warmPass.stats.deduped) /
                static_cast<double>(warmPass.stats.requests)
          : 0.0;
  std::cout << "  warm pass: " << warmPass.stats.requestsPerSecond << " req/s, hit ratio "
            << hitRatio << ", speedup vs cold " << warmSpeedup << "x\n";

  // Observability overhead: the same warm all-cache-hit batch with metrics +
  // tracing fully enabled vs fully disabled. Cache hits are the cheapest
  // requests the service serves, so this pass is the worst case for relative
  // instrumentation cost; best-of-3 per mode to damp scheduler noise.
  const auto warmObsRps = [&](bool enabled) {
    obs::ScopedMetricsEnabled metricsScope(enabled);
    obs::ScopedTracingEnabled tracingScope(enabled);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      best = std::max(best,
                      stream::solveBatch(warmScheduler, batch).stats.requestsPerSecond);
    }
    return best;
  };
  const double warmDisabledRps = warmObsRps(false);
  const double warmEnabledRps = warmObsRps(true);
  const double enabledOverDisabled =
      warmDisabledRps > 0 ? warmEnabledRps / warmDisabledRps : 1.0;
  std::cout << "  observability: warm disabled " << warmDisabledRps << " req/s, enabled "
            << warmEnabledRps << " req/s (ratio " << enabledOverDisabled << ")\n";

  // Widened-portfolio contribution pass: the full member catalog with
  // budget-aware dropping on a slice of the batch, reported member by member.
  service::ServiceConfig wideConfig;
  wideConfig.cacheCapacity = 0;
  wideConfig.portfolio.members = service::allPortfolioMembers();
  wideConfig.portfolio.dropAfter = dropAfter;
  stream::AsyncScheduler wideScheduler(schedulerConfig(1, wideConfig));
  const std::vector<service::Request> wideBatch(
      batch.begin(),
      batch.begin() + static_cast<std::ptrdiff_t>(std::min(membersRequests, batch.size())));
  const stream::BatchResult widePass = stream::solveBatch(wideScheduler, wideBatch);
  std::cout << "  members=all (" << wideBatch.size() << " requests, drop-after " << dropAfter
            << "): " << widePass.stats.requestsPerSecond << " req/s\n";
  for (const stream::MemberBatchStats& m : widePass.stats.members) {
    std::cout << "    " << m.solver << ": " << m.points << " pts, " << m.merged << " merged, "
              << m.skipped << " skipped\n";
  }

  // Warm-sweep pass (cross-request work sharing): the same instances swept
  // narrow (P points) then wide (2P-1 points, same range — the narrow grid
  // is a sub-grid of the wide one). Cold reference: a sharing-off service
  // solving the wide sweep from scratch.
  const std::size_t narrowPoints = std::max<std::size_t>(points, 2);
  const std::size_t widePoints = 2 * narrowPoints - 1;
  std::vector<service::Request> narrowBatch(
      batch.begin(),
      batch.begin() + static_cast<std::ptrdiff_t>(std::min(warmRequests, batch.size())));
  std::vector<service::Request> wideBatch2 = narrowBatch;
  for (service::Request& r : narrowBatch) r.sweep = service::SweepSpec{narrowPoints, 3};
  for (service::Request& r : wideBatch2) r.sweep = service::SweepSpec{widePoints, 3};

  service::ServiceConfig coldSweepConfig;
  coldSweepConfig.cacheCapacity = 0;
  coldSweepConfig.shareSubResults = false;
  stream::AsyncScheduler coldSweepScheduler(schedulerConfig(1, coldSweepConfig));
  const stream::BatchResult coldWide = stream::solveBatch(coldSweepScheduler, wideBatch2);

  service::ServiceConfig warmSweepConfig = coldSweepConfig;
  warmSweepConfig.shareSubResults = true;
  stream::AsyncScheduler warmSweepScheduler(schedulerConfig(1, warmSweepConfig));
  // Populate the sub-result cache.
  (void)stream::solveBatch(warmSweepScheduler, narrowBatch);
  const stream::BatchResult warmWide = stream::solveBatch(warmSweepScheduler, wideBatch2);
  const double warmSweepSpeedup =
      coldWide.stats.wallSeconds > 0 && warmWide.stats.wallSeconds > 0
          ? coldWide.stats.wallSeconds / warmWide.stats.wallSeconds
          : 1.0;
  std::cout << "  warm sweep (" << narrowBatch.size() << " instances, " << narrowPoints
            << " -> " << widePoints << " points): cold " << coldWide.stats.wallSeconds
            << " s, warm " << warmWide.stats.wallSeconds << " s, speedup " << warmSweepSpeedup
            << "x (" << warmWide.stats.subUnitsReused << " unit(s) reused)\n";

  std::ofstream os(output);
  if (!os) {
    std::cerr << "cannot write " << output << "\n";
    return 1;
  }
  io::JsonWriter w(os, /*pretty=*/true);
  w.beginObject();
  w.kv("benchmark", "perf_service");
  w.kv("requests", requests);
  w.kv("stages", stages);
  w.kv("processors", processors);
  w.kv("sweep_points", points);
  w.key("throughput").beginArray();
  for (const ThroughputSample& s : samples) {
    w.beginObject();
    w.kv("threads", s.threads);
    w.kv("requests_per_second", s.requestsPerSecond);
    w.kv("wall_seconds", s.wallSeconds);
    w.endObject();
  }
  w.endArray();
  w.kv("speedup_max_threads_vs_1", speedup);
  w.key("cache").beginObject();
  w.kv("hit_ratio", hitRatio);
  w.kv("warm_requests_per_second", warmPass.stats.requestsPerSecond);
  w.kv("warm_speedup", warmSpeedup);
  w.kv("entries", cacheStats.entries);
  w.endObject();
  w.key("observability").beginObject();
  w.kv("warm_disabled_rps", warmDisabledRps);
  w.kv("warm_enabled_rps", warmEnabledRps);
  w.kv("enabled_over_disabled", enabledOverDisabled);
  w.endObject();
  w.key("portfolio_members").beginObject();
  w.kv("members", "all");
  w.kv("drop_after", dropAfter);
  w.kv("requests", wideBatch.size());
  w.kv("requests_per_second", widePass.stats.requestsPerSecond);
  w.key("members_detail").beginArray();
  for (const stream::MemberBatchStats& m : widePass.stats.members) {
    w.beginObject();
    w.kv("member", m.solver);
    w.kv("runs", static_cast<std::size_t>(m.runs));
    w.kv("points", static_cast<std::size_t>(m.points));
    w.kv("novel", static_cast<std::size_t>(m.novel));
    w.kv("merged", static_cast<std::size_t>(m.merged));
    w.kv("skipped", static_cast<std::size_t>(m.skipped));
    w.kv("dropped", static_cast<std::size_t>(m.dropped));
    w.endObject();
  }
  w.endArray();
  w.endObject();
  w.key("warm_sweep").beginObject();
  w.kv("requests", narrowBatch.size());
  w.kv("narrow_points", narrowPoints);
  w.kv("wide_points", widePoints);
  w.kv("cold_seconds", coldWide.stats.wallSeconds);
  w.kv("warm_seconds", warmWide.stats.wallSeconds);
  w.kv("speedup", warmSweepSpeedup);
  w.kv("sub_hits", static_cast<std::size_t>(warmWide.stats.subHits));
  w.kv("sub_units_reused", static_cast<std::size_t>(warmWide.stats.subUnitsReused));
  w.endObject();
  w.endObject();
  os << "\n";
  std::cout << "wrote " << output << "\n";
  return 0;
}
