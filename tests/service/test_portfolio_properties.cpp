// Differential / property harness for the pluggable portfolio (ISSUE 3):
// on a seeded suite of randomized instances,
//   * the merged front is byte-identical serial vs pooled (2 and 8 runs at
//     once on separate threads, as stream workers run them) and across
//     repeated runs, with and without budget-aware dropping;
//   * the widened portfolio (refiners + c2c members) dominates-or-equals the
//     H1..H6-only front point for point;
//   * on exact-eligible small instances the merged front equals the
//     exhaustive enumerator's Pareto front;
//   * refiner members never emit a point dominated by their seed heuristic's
//     point at the same threshold, across both objective families;
//   * the set of dropped (member, unit) pairs is identical serial vs pooled,
//     and dropping never removes a point from the final front;
//   * batches through stream::solveBatch are byte-identical across worker
//     counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pipesched/core/pareto.hpp"
#include "pipesched/exact/exhaustive.hpp"
#include "pipesched/exp/pareto_study.hpp"
#include "pipesched/heuristics/registry.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::service {
namespace {

/// Instance i of the differential suite: a deterministic mix of the four
/// paper regimes and of sizes n in [4, 10], p in [3, 6].
workload::InstancePair suiteInstance(std::size_t i) {
  static constexpr workload::ExperimentKind kKinds[] = {
      workload::ExperimentKind::kE1BalancedHomComm,
      workload::ExperimentKind::kE2BalancedHetComm,
      workload::ExperimentKind::kE3LargeComputations,
      workload::ExperimentKind::kE4SmallComputations,
  };
  workload::Rng rng(1000 + i);
  return workload::randomInstance(kKinds[i % 4], 4 + (i % 7), 3 + (i % 4), rng);
}

/// Canonical byte rendering of a portfolio result (describeOutcome, the same
/// renderer the service byte-identity contract uses).
std::string render(const PortfolioResult& result) {
  RequestOutcome outcome;
  outcome.ok = true;
  outcome.result = result;
  return describeOutcome(outcome);
}

PortfolioConfig wideConfig(std::size_t dropAfter = 0) {
  PortfolioConfig config;
  config.members = allPortfolioMembers();
  config.dropAfter = dropAfter;
  config.annealingMoves = 400;  // keep the 21-member race test-sized
  return config;
}

const SweepSpec kSweep{5, Real(2.5)};

/// `count` runs of the same portfolio at once, one thread each — the shape
/// stream workers put on runPortfolio.
std::vector<PortfolioResult> concurrentRuns(std::size_t count, const core::Evaluator& eval,
                                            const PortfolioConfig& config) {
  std::vector<PortfolioResult> results(count);
  std::vector<std::thread> threads;
  for (PortfolioResult& result : results) {
    threads.emplace_back([&] { result = runPortfolio(eval, kSweep, config); });
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

void expectByteIdenticalAcrossWorkers(std::size_t dropAfter) {
  const PortfolioConfig config = wideConfig(dropAfter);
  for (std::size_t i = 0; i < 25; ++i) {
    const workload::InstancePair inst = suiteInstance(i);
    const core::Evaluator eval(inst.pipeline, inst.platform);
    const std::string serial = render(runPortfolio(eval, kSweep, config));
    for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
      for (const PortfolioResult& pooled : concurrentRuns(workers, eval, config)) {
        EXPECT_EQ(serial, render(pooled)) << "instance " << i << ", " << workers << " workers";
      }
    }
  }
}

TEST(PortfolioProperties, MergedFrontByteIdenticalSerialVsPooled) {
  expectByteIdenticalAcrossWorkers(/*dropAfter=*/0);
}

TEST(PortfolioProperties, MergedFrontByteIdenticalSerialVsPooledWithDropping) {
  expectByteIdenticalAcrossWorkers(/*dropAfter=*/2);
}

TEST(PortfolioProperties, RepeatedRunsAreByteIdentical) {
  const PortfolioConfig config = wideConfig();
  for (std::size_t i = 0; i < 10; ++i) {
    const workload::InstancePair inst = suiteInstance(i);
    const core::Evaluator eval(inst.pipeline, inst.platform);
    EXPECT_EQ(render(runPortfolio(eval, kSweep, config)),
              render(runPortfolio(eval, kSweep, config)))
        << "instance " << i;
  }
}

TEST(PortfolioProperties, WidenedFrontDominatesOrEqualsHOnlyFront) {
  PortfolioConfig hOnly;
  hOnly.members = {"H1", "H2", "H3", "H4", "H5", "H6"};
  PortfolioConfig wide = wideConfig();
  // Exclude the exact member from both sides: this property is about the
  // widening itself, not about the enumerator's optimality.
  wide.useExact = false;
  hOnly.useExact = false;
  for (std::size_t i = 0; i < 15; ++i) {
    const workload::InstancePair inst = suiteInstance(i);
    const core::Evaluator eval(inst.pipeline, inst.platform);
    const PortfolioResult base = runPortfolio(eval, kSweep, hOnly);
    const PortfolioResult widened = runPortfolio(eval, kSweep, wide);
    for (const core::ParetoPoint& q : base.front) {
      const bool covered = std::any_of(
          widened.front.begin(), widened.front.end(), [&](const core::ParetoPoint& p) {
            return lessOrNearlyEqual(p.period, q.period) &&
                   lessOrNearlyEqual(p.latency, q.latency);
          });
      EXPECT_TRUE(covered) << "instance " << i << ": H-only point (" << q.period << ", "
                           << q.latency << ") not covered by the widened front";
    }
  }
}

TEST(PortfolioProperties, ExactEligibleMergedFrontEqualsEnumerator) {
  const PortfolioConfig config = wideConfig();
  for (std::size_t i = 0; i < 10; ++i) {
    // Small instances only: n in [4, 6], p in [3, 4] — always exact-eligible.
    workload::Rng rng(2000 + i);
    const workload::InstancePair inst = workload::randomInstance(
        workload::ExperimentKind::kE2BalancedHetComm, 4 + (i % 3), 3 + (i % 2), rng);
    const core::Evaluator eval(inst.pipeline, inst.platform);
    ASSERT_TRUE(exactEligible(inst.pipeline.stageCount(), inst.platform.processorCount(),
                              config));
    const PortfolioResult result = runPortfolio(eval, kSweep, config);
    EXPECT_TRUE(result.exactUsed);
    const std::vector<core::ParetoPoint> exactFront = exact::exhaustiveParetoFront(eval);
    ASSERT_EQ(result.front.size(), exactFront.size()) << "instance " << i;
    for (std::size_t k = 0; k < exactFront.size(); ++k) {
      EXPECT_TRUE(nearlyEqual(result.front[k].period, exactFront[k].period))
          << "instance " << i << " point " << k;
      EXPECT_TRUE(nearlyEqual(result.front[k].latency, exactFront[k].latency))
          << "instance " << i << " point " << k;
    }
  }
}

/// Replays the refiner's grid formula (the same one the sweep members use)
/// so the test can pair every refined point with its seed's point.
Real gridThreshold(const core::Evaluator& eval, const heuristics::MappingHeuristic& h,
                   const SweepSpec& sweep, std::size_t i) {
  const Real lo = h.objective() == heuristics::Objective::kMinLatencyForPeriod
                      ? h.failureThreshold(eval)
                      : eval.optimalLatency();
  return exp::sweepThreshold(lo, lo * sweep.range, sweep.points, i);
}

void expectRefinerNeverWorsens(const std::string& refinerId, heuristics::HeuristicId baseId) {
  PortfolioConfig config;
  config.members = {refinerId};
  config.annealingMoves = 400;
  const std::unique_ptr<heuristics::MappingHeuristic> base = heuristics::makeHeuristic(baseId);
  for (std::size_t i = 0; i < 12; ++i) {
    const workload::InstancePair inst = suiteInstance(i);
    const core::Evaluator eval(inst.pipeline, inst.platform);
    const auto members = makePortfolioMembers(config);
    ASSERT_EQ(members.size(), 1u);
    const auto run = members.front()->start(eval, kSweep, config, /*share=*/nullptr);
    ASSERT_EQ(run->units(), kSweep.points);
    for (std::size_t u = 0; u < run->units(); ++u) {
      const Real t = gridThreshold(eval, *base, kSweep, u);
      const heuristics::Result seed = base->run(eval, t);
      const std::vector<core::ParetoPoint> refined = run->unit(u);
      if (!seed.success || refined.empty()) continue;
      core::ParetoPoint seedPoint;
      seedPoint.period = seed.metrics.period;
      seedPoint.latency = seed.metrics.latency;
      EXPECT_FALSE(core::dominates(seedPoint, refined.front()))
          << refinerId << " on instance " << i << " unit " << u << ": refined ("
          << refined.front().period << ", " << refined.front().latency
          << ") is dominated by its seed (" << seedPoint.period << ", " << seedPoint.latency
          << ")";
    }
  }
}

TEST(PortfolioProperties, LocalSearchRefinerNeverWorsensPeriodFamilySeed) {
  expectRefinerNeverWorsens("ls:H1", heuristics::HeuristicId::kH1SpMonoP);
  expectRefinerNeverWorsens("ls:H4", heuristics::HeuristicId::kH4SpBiP);
}

TEST(PortfolioProperties, LocalSearchRefinerNeverWorsensLatencyFamilySeed) {
  expectRefinerNeverWorsens("ls:H5", heuristics::HeuristicId::kH5SpMonoL);
  expectRefinerNeverWorsens("ls:H6", heuristics::HeuristicId::kH6SpBiL);
}

TEST(PortfolioProperties, AnnealingRefinerNeverWorsensPeriodFamilySeed) {
  expectRefinerNeverWorsens("sa:H1", heuristics::HeuristicId::kH1SpMonoP);
  expectRefinerNeverWorsens("sa:H4", heuristics::HeuristicId::kH4SpBiP);
}

TEST(PortfolioProperties, AnnealingRefinerNeverWorsensLatencyFamilySeed) {
  expectRefinerNeverWorsens("sa:H5", heuristics::HeuristicId::kH5SpMonoL);
  expectRefinerNeverWorsens("sa:H6", heuristics::HeuristicId::kH6SpBiL);
}

TEST(PortfolioProperties, DropDecisionsIdenticalSerialVsPooled) {
  const PortfolioConfig config = wideConfig(/*dropAfter=*/2);
  for (std::size_t i = 0; i < 12; ++i) {
    const workload::InstancePair inst = suiteInstance(i);
    const core::Evaluator eval(inst.pipeline, inst.platform);
    const PortfolioResult serial = runPortfolio(eval, kSweep, config);
    for (const PortfolioResult& pooled : concurrentRuns(8, eval, config)) {
      ASSERT_EQ(serial.solvers.size(), pooled.solvers.size());
      for (std::size_t s = 0; s < serial.solvers.size(); ++s) {
        EXPECT_EQ(serial.solvers[s].solver, pooled.solvers[s].solver);
        EXPECT_EQ(serial.solvers[s].dropped, pooled.solvers[s].dropped)
            << serial.solvers[s].solver;
        EXPECT_EQ(serial.solvers[s].skipped, pooled.solvers[s].skipped)
            << serial.solvers[s].solver;
        EXPECT_EQ(serial.solvers[s].units, pooled.solvers[s].units) << serial.solvers[s].solver;
      }
    }
  }
}

TEST(PortfolioProperties, DroppingNeverRemovesAFinalFrontPoint) {
  for (std::size_t i = 0; i < 12; ++i) {
    const workload::InstancePair inst = suiteInstance(i);
    const core::Evaluator eval(inst.pipeline, inst.platform);
    const PortfolioResult full = runPortfolio(eval, kSweep, wideConfig(0));
    const PortfolioResult dropped = runPortfolio(eval, kSweep, wideConfig(2));
    ASSERT_EQ(full.front.size(), dropped.front.size()) << "instance " << i;
    for (std::size_t k = 0; k < full.front.size(); ++k) {
      EXPECT_TRUE(nearlyEqual(full.front[k].period, dropped.front[k].period))
          << "instance " << i << " point " << k;
      EXPECT_TRUE(nearlyEqual(full.front[k].latency, dropped.front[k].latency))
          << "instance " << i << " point " << k;
    }
  }
}

TEST(PortfolioProperties, DroppingIsReportedInContributions) {
  // A dense grid over a narrow range plateaus quickly: with dropAfter=1 at
  // 16 grid points, at least one sweeping member must report a skip on a
  // 2-processor instance (its front has at most 2 distinct trade-offs).
  workload::Rng rng(77);
  const workload::InstancePair inst =
      workload::randomInstance(workload::ExperimentKind::kE1BalancedHomComm, 6, 2, rng);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config = wideConfig(/*dropAfter=*/1);
  const PortfolioResult result = runPortfolio(eval, SweepSpec{16, Real(3)}, config);
  std::size_t skipped = 0;
  for (const SolverContribution& c : result.solvers) {
    if (c.dropped) {
      EXPECT_GT(c.skipped, 0u) << c.solver;
      skipped += c.skipped;
    } else {
      EXPECT_EQ(c.skipped, 0u) << c.solver;
    }
  }
  EXPECT_GT(skipped, 0u);
  // Dropping is a skip policy, not a budget failure.
  EXPECT_FALSE(result.budgetExhausted);
}

TEST(PortfolioProperties, ServiceBatchIsByteIdenticalAcrossThreadCountsWithWideMembers) {
  // End-to-end: the same widened+dropping portfolio through stream::solveBatch
  // at 0 (serial), 2 and 8 workers — outcome-for-outcome byte identity.
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 8; ++i) {
    workload::InstancePair inst = suiteInstance(i);
    requests.push_back(Request{std::move(inst.pipeline), std::move(inst.platform),
                               core::CommModel::kSequential, kSweep,
                               "prop-" + std::to_string(i)});
  }
  const auto runAt = [&](std::size_t workers) {
    stream::StreamConfig config;
    config.workers = workers;
    config.service.cacheCapacity = 0;
    config.service.portfolio = wideConfig(/*dropAfter=*/2);
    stream::AsyncScheduler svc(config);
    const stream::BatchResult batch = stream::solveBatch(svc, requests);
    std::string rendered;
    for (const RequestOutcome& outcome : batch.outcomes) rendered += describeOutcome(outcome);
    return rendered;
  };
  const std::string serial = runAt(0);
  EXPECT_EQ(serial, runAt(2));
  EXPECT_EQ(serial, runAt(8));
}

}  // namespace
}  // namespace pipesched::service
