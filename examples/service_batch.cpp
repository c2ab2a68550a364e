// Demo of the portfolio scheduling service: batch-solve the named scenarios
// plus a generated E2 suite, then show what the cache buys on a repeat.
#include <iostream>
#include <sstream>

#include "pipesched/service/service.hpp"
#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"
#include "pipesched/workload/scenarios.hpp"

int main() {
  using namespace pipesched;

  // The request mix: every named scenario on the lab cluster, plus five
  // random E2 instances.
  std::vector<service::Request> requests;
  const core::Platform lab = workload::labCluster();
  for (workload::Scenario& scenario : workload::allScenarios()) {
    requests.push_back(service::Request{std::move(scenario.pipeline), lab,
                                        core::CommModel::kSequential, service::SweepSpec{},
                                        scenario.name});
  }
  workload::Rng rng(42);
  for (int i = 0; i < 5; ++i) {
    workload::InstancePair pair =
        workload::randomInstance(workload::ExperimentKind::kE2BalancedHetComm, 8, 5, rng);
    std::ostringstream name;
    name << "E2-random-" << i;
    requests.push_back(service::Request{std::move(pair.pipeline), std::move(pair.platform),
                                        core::CommModel::kSequential, service::SweepSpec{},
                                        name.str()});
  }

  stream::StreamConfig config;
  config.workers = stream::defaultWorkerCount();
  stream::AsyncScheduler scheduler(config);

  const stream::BatchResult batch = stream::solveBatch(scheduler, requests);
  std::cout << "solved " << batch.stats.requests << " requests in " << batch.stats.wallSeconds
            << " s (" << batch.stats.requestsPerSecond << " req/s, " << config.workers
            << " workers)\n\n";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const service::RequestOutcome& outcome = batch.outcomes[i];
    std::cout << requests[i].name << " [" << service::fingerprint(requests[i]).hex().substr(0, 12)
              << "]: ";
    if (!outcome.ok) {
      std::cout << "error: " << outcome.error << "\n";
      continue;
    }
    std::cout << outcome.result.front.size() << "-point front";
    if (outcome.result.exactUsed) std::cout << " (exact raced)";
    std::cout << "\n";
    for (const core::ParetoPoint& p : outcome.result.front) {
      std::cout << "    period " << p.period << "  latency " << p.latency;
      if (p.mapping) std::cout << "  " << p.mapping->describe();
      std::cout << "\n";
    }
  }

  // Re-submit the same batch: every request is a cache hit.
  const stream::BatchResult again = stream::solveBatch(scheduler, requests);
  std::cout << "\nrepeat: " << again.stats.cacheHits << " cache hit(s) + "
            << again.stats.deduped << " dedup(s) of " << again.stats.requests
            << " requests in " << again.stats.wallSeconds << " s\n";
  const service::CacheStats cache = scheduler.cacheStats();
  std::cout << "cache: " << cache.entries << " entries, hit ratio " << cache.hitRatio() << "\n";

  // Widen the race: every catalog member (H1..H6, local-search and annealing
  // refiners, the c2c chain solvers, exact) with budget-aware dropping, and
  // show what each member contributed to the merged fronts.
  stream::StreamConfig wideConfig = config;
  wideConfig.service.cacheCapacity = 0;  // fresh solves: we want contribution stats
  wideConfig.service.portfolio.members = service::allPortfolioMembers();
  wideConfig.service.portfolio.dropAfter = 4;
  stream::AsyncScheduler wideScheduler(wideConfig);
  const stream::BatchResult wide = stream::solveBatch(wideScheduler, requests);
  std::cout << "\nwidened portfolio (members=all, drop-after 4):\n";
  for (const stream::MemberBatchStats& m : wide.stats.members) {
    std::cout << "  " << m.solver << ": " << m.points << " point(s), " << m.novel
              << " novel, " << m.merged << " on the merged front, " << m.skipped
              << " unit(s) skipped\n";
  }
  return 0;
}
