#include "pipesched/service/service.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "pipesched/fault/fault.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"

namespace pipesched::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Adds a fresh solve's stage timings and per-member walls to `trace`.
/// Cache hits never come through here: a hit repeats a prior solve's result,
/// not its work, so its trace carries only the lookup.
void addSolveStages(obs::RequestTrace& trace, const PortfolioResult& result) {
  trace.add(obs::Stage::kMemberSolve, result.memberRaceSeconds);
  trace.add(obs::Stage::kMerge, result.mergeSeconds);
  trace.members.reserve(result.solvers.size());
  for (const SolverContribution& c : result.solvers) {
    trace.members.emplace_back(c.solver, c.wallSeconds);
  }
}

/// Registry counters mirroring the solved/cache-hit/failed outcome buckets.
void countOutcome(const RequestOutcome& outcome) {
  if (!obs::metricsEnabled()) return;
  static obs::Counter& solved = obs::registry().counter(obs::names::kRequestsSolved);
  static obs::Counter& cacheHits = obs::registry().counter(obs::names::kRequestsCacheHit);
  static obs::Counter& failed = obs::registry().counter(obs::names::kRequestsFailed);
  if (!outcome.ok) {
    failed.add();
  } else if (outcome.fromCache) {
    cacheHits.add();
  } else {
    solved.add();
    if (outcome.result.degraded) {
      obs::registry().counter(obs::names::kDegradedResponses).add();
    }
  }
}

}  // namespace

SchedulingService::SchedulingService(ServiceConfig config)
    : config_(config),
      cache_(config.cacheCapacity, config.cacheShards),
      subCache_(config.shareSubResults ? config.subCacheCapacity : 0, config.subCacheShards) {}

RequestOutcome SchedulingService::solveUncached(const Request& request) {
  RequestOutcome outcome;
  try {
    const core::Evaluator eval(request.pipeline, request.platform, request.model);
    // Cross-request work sharing: bind this solve to the sub-result cache
    // under the instance's sweep-independent identity. Safe under one fixed
    // portfolio config (this service's), whatever the interleaving of
    // concurrent solves — memoized units are pure functions of their keys.
    std::optional<SubShare> share;
    if (subCache_.capacity() > 0) {
      share.emplace(&subCache_, instanceFingerprint(request));
    }
    outcome.result = runPortfolio(eval, request.sweep, config_.portfolio,
                                  share ? &*share : nullptr, request.deadline);
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  } catch (...) {
    // A non-std exception from a solver must still land in the outcome slot:
    // letting it escape a stream worker would sink every request behind it
    // for one bad request.
    outcome.ok = false;
    outcome.error = "unknown exception while solving";
  }
  return outcome;
}

RequestOutcome SchedulingService::solve(const Request& request) {
  if (!obs::tracingEnabled()) {
    return solve(request, requestIdentity(request), nullptr);
  }
  obs::RequestTrace trace;
  trace.totalSeconds = request.parseSeconds;
  if (request.parseSeconds > 0) trace.add(obs::Stage::kParse, request.parseSeconds);
  obs::TraceSpan fingerprintSpan(obs::Stage::kFingerprint, &trace);
  const RequestIdentity identity = requestIdentity(request);
  trace.totalSeconds += fingerprintSpan.stop();
  return solve(request, identity, &trace);
}

RequestOutcome SchedulingService::solve(const Request& request,
                                        const RequestIdentity& identity,
                                        obs::RequestTrace* trace) {
  obs::TraceSpan lookupSpan(obs::Stage::kCacheLookup, trace);
  // Armed `cache.get` faults force a miss — the solve path must stay correct
  // (if slower) when the cache tier misbehaves.
  std::optional<PortfolioResult> cached;
  if (!fault::injected(fault::sites::kCacheGet)) {
    cached = cache_.get(identity.fp, identity.key);
  }
  const double lookupSeconds = lookupSpan.stop();
  if (trace != nullptr) trace->totalSeconds += lookupSeconds;
  if (cached) {
    RequestOutcome outcome;
    outcome.ok = true;
    outcome.result = std::move(*cached);
    outcome.fromCache = true;
    outcome.fingerprint = identity.fp;
    if (trace != nullptr) {
      outcome.trace = std::make_shared<const obs::RequestTrace>(std::move(*trace));
    }
    countOutcome(outcome);
    return outcome;
  }
  const Clock::time_point solveStart = trace != nullptr ? Clock::now() : Clock::time_point{};
  RequestOutcome outcome = solveUncached(request);
  outcome.fingerprint = identity.fp;
  // Degraded (deadline/failure-cut) fronts are partial by timing accident —
  // caching one would serve the truncation to every later identical request.
  if (outcome.ok && !outcome.result.degraded &&
      !fault::injected(fault::sites::kCachePut)) {
    cache_.put(identity.fp, identity.key, outcome.result);
  }
  if (trace != nullptr) {
    trace->totalSeconds += std::chrono::duration<double>(Clock::now() - solveStart).count();
    if (outcome.ok) addSolveStages(*trace, outcome.result);
    outcome.trace = std::make_shared<const obs::RequestTrace>(std::move(*trace));
  }
  countOutcome(outcome);
  return outcome;
}

std::string describeOutcome(const RequestOutcome& outcome) {
  std::ostringstream os;
  if (!outcome.ok) {
    os << "error: " << outcome.error << '\n';
    return std::move(os).str();
  }
  const PortfolioResult& r = outcome.result;
  os << "front:" << r.front.size() << " exact:" << (r.exactUsed ? 1 : 0)
     << " exhausted:" << (r.budgetExhausted ? 1 : 0) << '\n';
  for (const core::ParetoPoint& p : r.front) {
    os << renderRealHex(p.period) << ' ' << renderRealHex(p.latency);
    if (p.mapping) os << ' ' << p.mapping->describe();
    os << '\n';
  }
  for (const SolverContribution& c : r.solvers) {
    os << c.solver << ':' << c.points << (c.completed ? "" : "!");
    // Drop-policy skips are part of the deterministic result (identical
    // whatever the worker count), so they belong in the canonical rendering.
    if (c.skipped > 0) os << '~' << c.skipped;
    os << '\n';
  }
  return std::move(os).str();
}

}  // namespace pipesched::service
