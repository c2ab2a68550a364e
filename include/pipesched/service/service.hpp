// The portfolio scheduling service: the seam between the per-instance
// solvers and a deployable, traffic-serving scheduler.
//
//   SchedulingService service(config);
//   RequestOutcome out = service.solve(request);
//
// solve() answers one request — result-cache lookup, then a serial portfolio
// race over the request's threshold grid. It is safe to call from several
// threads at once: stream::AsyncScheduler runs one solve per worker, and
// stream::solveBatch() (stream/engine.hpp) drives whole batches through it.
#pragma once

#include <cstddef>
#include <string>

#include "pipesched/service/fingerprint.hpp"
#include "pipesched/service/portfolio.hpp"
#include "pipesched/service/request.hpp"
#include "pipesched/service/result_cache.hpp"

namespace pipesched::service {

struct ServiceConfig {
  /// Result-cache entries (0 disables caching) and shard count.
  std::size_t cacheCapacity = 1024;
  std::size_t cacheShards = 8;

  /// Cross-request sub-result sharing: memoize per-threshold work units and
  /// warm-start seeds under the sweep-independent instance identity, so a
  /// new sweep over a seen instance only solves the thresholds it has not
  /// met. Fronts are byte-identical with sharing on or off (see the
  /// determinism guarantee in portfolio.hpp; like every reproducibility
  /// property here it presumes no wall-clock budget) — only the work
  /// changes.
  bool shareSubResults = true;

  /// Sub-result cache entries (work units, much smaller than whole results)
  /// and shard count. 0 also disables sharing.
  std::size_t subCacheCapacity = 32768;
  std::size_t subCacheShards = 8;

  PortfolioConfig portfolio;
};

class SchedulingService {
 public:
  explicit SchedulingService(ServiceConfig config = {});

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

  /// Solves one request: cache lookup, then a serial portfolio race.
  /// Never throws on solver failure — the outcome carries the error text.
  [[nodiscard]] RequestOutcome solve(const Request& request);

  /// As above, with the caller's precomputed identity (must be
  /// requestIdentity(request) — spares the hot async path a second
  /// canonicalization walk per request), continuing a caller-assembled
  /// per-request trace (the stream worker pre-fills parse/queue-wait/
  /// fingerprint stages). The service adds its own stages, folds its wall
  /// time into `trace->totalSeconds`, and attaches the finished trace to the
  /// outcome. `trace` may be null.
  [[nodiscard]] RequestOutcome solve(const Request& request, const RequestIdentity& identity,
                                     obs::RequestTrace* trace);

  [[nodiscard]] CacheStats cacheStats() const { return cache_.stats(); }

  /// Counters of the instance-keyed sub-result cache (cross-request work
  /// sharing); all zero when ServiceConfig::shareSubResults is off.
  [[nodiscard]] CacheStats subCacheStats() const { return subCache_.stats(); }

  void clearCache() {
    cache_.clear();
    subCache_.clear();
  }

 private:
  [[nodiscard]] RequestOutcome solveUncached(const Request& request);

  ServiceConfig config_;
  ResultCache cache_;
  SubResultCache subCache_;
};

/// Canonical text rendering of an outcome (hexfloat metrics + mappings) —
/// the form the byte-identity tests and the CLI's JSON diffing rely on.
[[nodiscard]] std::string describeOutcome(const RequestOutcome& outcome);

}  // namespace pipesched::service
