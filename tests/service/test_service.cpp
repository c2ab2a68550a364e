// The scheduling service and its batch entry point (stream::solveBatch): batch
// outcomes are byte-identical across worker counts, cache hits return the
// same fronts as cold runs, dedupe shares work, and failures degrade
// gracefully.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pipesched/fault/fault.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"
#include "pipesched/workload/scenarios.hpp"

namespace pipesched::service {
namespace {

using stream::AsyncScheduler;
using stream::BatchResult;

/// A scheduler configuration: `workers` workers over `serviceConfig`.
stream::StreamConfig schedulerConfig(std::size_t workers, ServiceConfig serviceConfig = {}) {
  stream::StreamConfig config;
  config.workers = workers;
  config.service = std::move(serviceConfig);
  return config;
}

/// The named scenarios on the lab cluster plus one generated suite per
/// experiment regime E1..E4 — the mix the acceptance criteria call out.
std::vector<Request> mixedRequests(std::size_t perKind, std::uint64_t seed) {
  const SweepSpec sweep{10, 3};
  std::vector<Request> requests;
  const core::Platform lab = workload::labCluster();
  for (workload::Scenario& scenario : workload::allScenarios()) {
    requests.push_back(Request{std::move(scenario.pipeline), lab,
                               core::CommModel::kSequential, sweep, scenario.name});
  }
  const workload::ExperimentKind kinds[] = {
      workload::ExperimentKind::kE1BalancedHomComm,
      workload::ExperimentKind::kE2BalancedHetComm,
      workload::ExperimentKind::kE3LargeComputations,
      workload::ExperimentKind::kE4SmallComputations,
  };
  workload::Rng rng(seed);
  for (const workload::ExperimentKind kind : kinds) {
    for (std::size_t i = 0; i < perKind; ++i) {
      workload::InstancePair pair = workload::randomInstance(kind, 8, 5, rng);
      std::ostringstream name;
      name << workload::experimentName(kind) << '-' << i;
      requests.push_back(Request{std::move(pair.pipeline), std::move(pair.platform),
                                 core::CommModel::kSequential, sweep, name.str()});
    }
  }
  return requests;
}

std::string renderBatch(const BatchResult& batch) {
  std::string out;
  for (const RequestOutcome& outcome : batch.outcomes) {
    out += describeOutcome(outcome);
    out += "---\n";
  }
  return out;
}

TEST(Service, BatchIsByteIdenticalToSerialAcrossScenariosAndSeeds) {
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const std::vector<Request> requests = mixedRequests(2, seed);

    // Serial reference: zero workers, no cache — every request solved inline
    // in input order.
    ServiceConfig serialConfig;
    serialConfig.cacheCapacity = 0;
    AsyncScheduler serial(schedulerConfig(0, serialConfig));
    const BatchResult serialBatch = stream::solveBatch(serial, requests);

    AsyncScheduler pooled(schedulerConfig(4));
    const BatchResult pooledBatch = stream::solveBatch(pooled, requests);

    EXPECT_EQ(renderBatch(serialBatch), renderBatch(pooledBatch)) << "seed " << seed;
    EXPECT_EQ(serialBatch.stats.failed, 0u);
  }
}

TEST(Service, CacheHitsReturnTheSameFrontsAsColdRuns) {
  const std::vector<Request> requests = mixedRequests(1, 7);
  AsyncScheduler svc(schedulerConfig(2));

  const BatchResult cold = stream::solveBatch(svc, requests);
  ASSERT_EQ(cold.stats.failed, 0u);
  EXPECT_EQ(cold.stats.cacheHits, 0u);

  const BatchResult warm = stream::solveBatch(svc, requests);
  EXPECT_EQ(warm.stats.cacheHits + warm.stats.deduped, warm.stats.requests);
  EXPECT_EQ(warm.stats.solved, 0u);

  ASSERT_EQ(cold.outcomes.size(), warm.outcomes.size());
  for (std::size_t i = 0; i < cold.outcomes.size(); ++i) {
    // Identical fronts, mappings included — only the provenance flag differs.
    RequestOutcome normalized = warm.outcomes[i];
    normalized.fromCache = false;
    normalized.deduped = false;
    EXPECT_EQ(describeOutcome(cold.outcomes[i]), describeOutcome(normalized)) << "slot " << i;
  }

  const CacheStats stats = svc.cacheStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(Service, IdenticalRequestsDedupeWithinOneBatch) {
  std::vector<Request> requests = mixedRequests(1, 3);
  const std::size_t base = requests.size();
  for (std::size_t i = 0; i < base; ++i) {
    Request copy = requests[i];
    copy.name = copy.name + "-duplicate";  // name must not defeat dedupe
    requests.push_back(std::move(copy));
  }

  ServiceConfig config;
  config.cacheCapacity = 0;  // isolate in-batch dedupe from the cache
  AsyncScheduler svc(schedulerConfig(2, config));
  const BatchResult batch = stream::solveBatch(svc, requests);

  EXPECT_EQ(batch.stats.requests, 2 * base);
  EXPECT_EQ(batch.stats.solved, base);
  EXPECT_EQ(batch.stats.deduped, base);
  for (std::size_t i = 0; i < base; ++i) {
    EXPECT_FALSE(batch.outcomes[i].deduped);
    EXPECT_TRUE(batch.outcomes[base + i].deduped);
    EXPECT_EQ(describeOutcome(batch.outcomes[i]),
              [&] {
                RequestOutcome normalized = batch.outcomes[base + i];
                normalized.deduped = false;
                return describeOutcome(normalized);
              }())
        << "slot " << i;
  }
}

TEST(Service, SolveUsesTheCache) {
  const std::vector<Request> requests = mixedRequests(1, 5);
  SchedulingService svc;
  const RequestOutcome cold = svc.solve(requests.front());
  ASSERT_TRUE(cold.ok);
  EXPECT_FALSE(cold.fromCache);
  const RequestOutcome hit = svc.solve(requests.front());
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.fromCache);
  RequestOutcome normalized = hit;
  normalized.fromCache = false;
  EXPECT_EQ(describeOutcome(cold), describeOutcome(normalized));
}

TEST(Service, MalformedRequestFailsItsSlotOnly) {
  std::vector<Request> requests = mixedRequests(1, 9);
  requests[1].sweep.points = 0;  // runPortfolio rejects this
  AsyncScheduler svc(schedulerConfig(2));
  const BatchResult batch = stream::solveBatch(svc, requests);
  EXPECT_EQ(batch.stats.failed, 1u);
  EXPECT_FALSE(batch.outcomes[1].ok);
  EXPECT_FALSE(batch.outcomes[1].error.empty());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i == 1) continue;
    EXPECT_TRUE(batch.outcomes[i].ok) << "slot " << i;
  }
}

TEST(Service, BudgetExhaustionDegradesGracefullyThroughTheBatchApi) {
  ServiceConfig config;
  config.portfolio.useExact = false;
  config.portfolio.budget.maxRunsPerSolver = 1;
  AsyncScheduler svc(schedulerConfig(2, config));
  const BatchResult batch = stream::solveBatch(svc, mixedRequests(1, 2));
  EXPECT_EQ(batch.stats.failed, 0u);
  for (const RequestOutcome& outcome : batch.outcomes) {
    ASSERT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.result.budgetExhausted);
    EXPECT_FALSE(outcome.result.front.empty());  // partial front, not a crash
  }
}

TEST(Service, StatsAccounting) {
  const std::vector<Request> requests = mixedRequests(1, 4);
  AsyncScheduler svc(schedulerConfig(2));
  const BatchResult batch = stream::solveBatch(svc, requests);
  EXPECT_EQ(batch.stats.requests, requests.size());
  EXPECT_EQ(batch.stats.solved + batch.stats.cacheHits + batch.stats.deduped +
                batch.stats.failed,
            requests.size());
  EXPECT_GE(batch.stats.wallSeconds, 0.0);
  EXPECT_GT(batch.stats.requestsPerSecond, 0.0);
}

TEST(Service, StatsBucketsArePartitionEvenWithFailedDuplicates) {
  // Two identical malformed requests: the duplicate of a failed group must
  // count under `failed`, not `deduped`, so the buckets sum to `requests`.
  std::vector<Request> requests = mixedRequests(1, 6);
  requests[0].sweep.points = 0;
  Request duplicate = requests[0];
  duplicate.name = "failed-twin";
  requests.push_back(std::move(duplicate));

  AsyncScheduler svc(schedulerConfig(2));
  const BatchResult batch = stream::solveBatch(svc, requests);
  EXPECT_EQ(batch.stats.failed, 2u);
  EXPECT_EQ(batch.stats.deduped, 0u);
  EXPECT_TRUE(batch.outcomes.back().deduped);  // the flag still records sharing
  EXPECT_FALSE(batch.outcomes.back().ok);
  EXPECT_EQ(batch.stats.solved + batch.stats.cacheHits + batch.stats.deduped +
                batch.stats.failed,
            requests.size());
}

TEST(Service, DegradedResultsAreNeverCached) {
  // A member fault degrades the first solve; once the fault clears, the same
  // request must be re-solved fresh — serving a cached partial front to a
  // healthy client would be a silent quality loss.
  const std::vector<Request> requests = mixedRequests(1, 17);
  ServiceConfig config;
  config.portfolio.useExact = false;
  SchedulingService svc(config);

  RequestOutcome degraded;
  {
    fault::ScopedFaultSpec scope("member.H2");
    degraded = svc.solve(requests.front());
  }
  ASSERT_TRUE(degraded.ok);
  EXPECT_TRUE(degraded.result.degraded);
  EXPECT_FALSE(degraded.fromCache);

  const RequestOutcome healthy = svc.solve(requests.front());
  ASSERT_TRUE(healthy.ok);
  EXPECT_FALSE(healthy.fromCache);  // the degraded result was not cached
  EXPECT_FALSE(healthy.result.degraded);
  // The healthy re-solve is at least as good: it was actually recomputed.
  EXPECT_GE(healthy.result.front.size(), 1u);

  // And a healthy result IS cached as usual.
  EXPECT_TRUE(svc.solve(requests.front()).fromCache);
}

TEST(Service, CacheFaultSitesBypassTheCacheWithoutFailingRequests) {
  const std::vector<Request> requests = mixedRequests(1, 19);
  ServiceConfig config;
  config.portfolio.useExact = false;
  SchedulingService svc(config);

  {
    // cache.put armed: the solve succeeds but nothing is stored.
    fault::ScopedFaultSpec scope("cache.put");
    const RequestOutcome outcome = svc.solve(requests.front());
    ASSERT_TRUE(outcome.ok);
    EXPECT_FALSE(outcome.result.degraded);  // cache faults don't degrade results
  }
  {
    // cache.get armed: the lookup is skipped, so this re-solves (no hit),
    // and the put (disarmed now) stores it.
    fault::ScopedFaultSpec scope("cache.get");
    const RequestOutcome outcome = svc.solve(requests.front());
    ASSERT_TRUE(outcome.ok);
    EXPECT_FALSE(outcome.fromCache);
  }
  // Fully disarmed: the entry stored on the previous solve now hits.
  EXPECT_TRUE(svc.solve(requests.front()).fromCache);
}

TEST(Service, OverlappedModelProducesItsOwnFronts) {
  workload::Rng rng(15);
  workload::InstancePair pair =
      workload::randomInstance(workload::ExperimentKind::kE4SmallComputations, 8, 5, rng);
  Request sequential{pair.pipeline, pair.platform, core::CommModel::kSequential,
                     SweepSpec{8, 3}, "seq"};
  Request overlapped = sequential;
  overlapped.model = core::CommModel::kOverlapped;

  AsyncScheduler svc(schedulerConfig(2));
  const BatchResult batch = stream::solveBatch(svc, {sequential, overlapped});
  EXPECT_EQ(batch.stats.failed, 0u);
  EXPECT_EQ(batch.stats.deduped, 0u);  // different models must not dedupe
  EXPECT_EQ(batch.stats.solved, 2u);
}

}  // namespace
}  // namespace pipesched::service
