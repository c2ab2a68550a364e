// Portfolio solver: concurrent runs (the shape stream workers produce) ==
// serial run, heuristic-study consistency, exact membership on small
// instances, budget degradation.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "pipesched/exact/exhaustive.hpp"
#include "pipesched/exp/pareto_study.hpp"
#include "pipesched/fault/fault.hpp"
#include "pipesched/service/portfolio.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::service {
namespace {

workload::InstancePair instanceFor(workload::ExperimentKind kind, std::size_t n, std::size_t p,
                                   std::uint64_t seed) {
  workload::Rng rng(seed);
  return workload::randomInstance(kind, n, p, rng);
}

void expectSameFront(const std::vector<core::ParetoPoint>& a,
                     const std::vector<core::ParetoPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].period, b[i].period) << "point " << i;
    EXPECT_EQ(a[i].latency, b[i].latency) << "point " << i;
    ASSERT_EQ(a[i].mapping.has_value(), b[i].mapping.has_value()) << "point " << i;
    if (a[i].mapping) EXPECT_EQ(*a[i].mapping, *b[i].mapping) << "point " << i;
  }
}

/// Runs `run` on `count` threads at once — the shape stream workers put on
/// runPortfolio — and returns every result.
template <typename Run>
std::vector<PortfolioResult> concurrently(std::size_t count, const Run& run) {
  std::vector<PortfolioResult> results(count);
  std::vector<std::thread> threads;
  for (PortfolioResult& result : results) threads.emplace_back([&] { result = run(); });
  for (std::thread& thread : threads) thread.join();
  return results;
}

TEST(Portfolio, PooledRunEqualsSerialRun) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 12, 8, 7);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  const SweepSpec sweep{12, 3};
  const PortfolioResult serial = runPortfolio(eval, sweep);
  for (const PortfolioResult& pooled : concurrently(4, [&] { return runPortfolio(eval, sweep); })) {
    expectSameFront(serial.front, pooled.front);
    ASSERT_EQ(serial.solvers.size(), pooled.solvers.size());
    for (std::size_t i = 0; i < serial.solvers.size(); ++i) {
      EXPECT_EQ(serial.solvers[i].solver, pooled.solvers[i].solver);
      EXPECT_EQ(serial.solvers[i].points, pooled.solvers[i].points);
    }
  }
}

TEST(Portfolio, MatchesParetoStudyWhenExactDisabled) {
  const auto inst = instanceFor(workload::ExperimentKind::kE1BalancedHomComm, 10, 8, 3);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.useExact = false;
  const SweepSpec sweep{16, 3};
  const PortfolioResult result = runPortfolio(eval, sweep, config);
  EXPECT_FALSE(result.exactUsed);

  exp::ParetoStudyConfig studyConfig;
  studyConfig.pointsPerHeuristic = sweep.points;
  studyConfig.range = sweep.range;
  const exp::ParetoStudy study = exp::runParetoStudy(eval, studyConfig);
  expectSameFront(study.merged, result.front);
}

TEST(Portfolio, ExactJoinsOnSmallInstancesAndItsFrontSurvivesMerging) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 6, 4, 11);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  const PortfolioConfig config;
  ASSERT_TRUE(exactEligible(6, 4, config));
  const PortfolioResult result = runPortfolio(eval, SweepSpec{8, 3}, config);
  EXPECT_TRUE(result.exactUsed);
  ASSERT_EQ(result.solvers.size(), 7u);
  EXPECT_EQ(result.solvers.back().solver, "exact");
  EXPECT_TRUE(result.solvers.back().completed);

  // The exact front is globally optimal, so the merged portfolio front must
  // carry exactly its coordinates.
  const auto exactFront = exact::exhaustiveParetoFront(eval);
  ASSERT_EQ(result.front.size(), exactFront.size());
  for (std::size_t i = 0; i < exactFront.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.front[i].period, exactFront[i].period);
    EXPECT_DOUBLE_EQ(result.front[i].latency, exactFront[i].latency);
  }
}

TEST(Portfolio, ExactEligibilityRespectsLimits) {
  PortfolioConfig config;
  config.exactCellLimit = 48;
  config.exactProcessorLimit = 6;
  EXPECT_TRUE(exactEligible(8, 5, config));    // 40 cells
  EXPECT_FALSE(exactEligible(10, 5, config));  // 50 cells
  EXPECT_FALSE(exactEligible(4, 7, config));   // p over the limit
  config.useExact = false;
  EXPECT_FALSE(exactEligible(8, 5, config));
}

TEST(Portfolio, WorkBudgetDegradesGracefully) {
  const auto inst = instanceFor(workload::ExperimentKind::kE3LargeComputations, 12, 8, 5);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig tight;
  tight.useExact = false;
  tight.budget.maxRunsPerSolver = 2;
  const PortfolioResult partial = runPortfolio(eval, SweepSpec{16, 3}, tight);
  EXPECT_TRUE(partial.budgetExhausted);
  for (const SolverContribution& c : partial.solvers) {
    EXPECT_FALSE(c.completed) << c.solver;
    EXPECT_LE(c.points, 2u) << c.solver;
  }
  // Partial, but still a usable front: the first grid point of the period
  // family is its exhaustion threshold, which always succeeds.
  EXPECT_FALSE(partial.front.empty());

  // And the full run covers the partial one: every partial front point is
  // matched or dominated by some full front point (the partial point set is
  // a subset of the full one).
  PortfolioConfig full;
  full.useExact = false;
  const PortfolioResult complete = runPortfolio(eval, SweepSpec{16, 3}, full);
  EXPECT_FALSE(complete.budgetExhausted);
  for (const core::ParetoPoint& p : partial.front) {
    bool covered = false;
    for (const core::ParetoPoint& q : complete.front) {
      if (lessOrNearlyEqual(q.period, p.period) && lessOrNearlyEqual(q.latency, p.latency)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "partial point (" << p.period << ", " << p.latency
                         << ") not covered by the full front";
  }
}

TEST(Portfolio, TimeBudgetZeroMeansUnlimited) {
  const auto inst = instanceFor(workload::ExperimentKind::kE4SmallComputations, 8, 5, 9);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.useExact = false;
  config.budget.timeBudgetMs = 0;
  const PortfolioResult result = runPortfolio(eval, SweepSpec{6, 2}, config);
  EXPECT_FALSE(result.budgetExhausted);
}

TEST(Portfolio, ExactMappingLimitFallsBackToHeuristics) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 8, 5, 13);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.budget.exactMappingLimit = 10;  // absurdly tight: the enumerator aborts
  const PortfolioResult result = runPortfolio(eval, SweepSpec{8, 3}, config);
  EXPECT_TRUE(result.exactUsed);
  EXPECT_TRUE(result.budgetExhausted);
  ASSERT_EQ(result.solvers.size(), 7u);
  EXPECT_FALSE(result.solvers.back().completed);
  EXPECT_EQ(result.solvers.back().points, 0u);
  EXPECT_FALSE(result.front.empty());  // heuristics still delivered
}

TEST(Portfolio, RejectsInvalidSweep) {
  const auto inst = instanceFor(workload::ExperimentKind::kE1BalancedHomComm, 5, 3, 1);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  EXPECT_THROW((void)runPortfolio(eval, SweepSpec{0, 3}), ModelError);
  EXPECT_THROW((void)runPortfolio(eval, SweepSpec{8, 1}), ModelError);
}

TEST(Portfolio, ExpiredRequestDeadlineYieldsExplicitlyDegradedResult) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 10, 6, 21);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.useExact = false;
  Deadline expired = Deadline::in(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const PortfolioResult result =
      runPortfolio(eval, SweepSpec{12, 3}, config, nullptr, expired);
  // Every member was cut before starting: the cut is flagged, never silent.
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.budgetExhausted);
  for (const SolverContribution& c : result.solvers) {
    EXPECT_FALSE(c.completed) << c.solver;
    EXPECT_EQ(c.points, 0u) << c.solver;
  }
}

TEST(Portfolio, UnboundedDeadlineChangesNothing) {
  const auto inst = instanceFor(workload::ExperimentKind::kE4SmallComputations, 8, 5, 9);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.useExact = false;
  const PortfolioResult plain = runPortfolio(eval, SweepSpec{6, 2}, config);
  const PortfolioResult withInactive =
      runPortfolio(eval, SweepSpec{6, 2}, config, nullptr, Deadline{});
  EXPECT_FALSE(withInactive.degraded);
  EXPECT_FALSE(withInactive.budgetExhausted);
  expectSameFront(plain.front, withInactive.front);
}

TEST(Portfolio, MemberFaultIsContainedAndFlagsDegradation) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 10, 6, 33);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.useExact = false;

  const PortfolioResult healthy = runPortfolio(eval, SweepSpec{8, 3}, config);

  fault::ScopedFaultSpec scope("member.H3");
  const PortfolioResult wounded = runPortfolio(eval, SweepSpec{8, 3}, config);
  EXPECT_TRUE(wounded.degraded);
  EXPECT_FALSE(wounded.front.empty());  // the other members still delivered
  bool sawFailure = false;
  for (const SolverContribution& c : wounded.solvers) {
    // Fault sites are keyed by member id ("H3"); contributions carry the
    // descriptive solver name ("H3-...") — match on the prefix.
    if (c.solver.rfind("H3", 0) == 0) {
      EXPECT_TRUE(c.failed);
      EXPECT_FALSE(c.completed);
      sawFailure = true;
    } else {
      EXPECT_FALSE(c.failed) << c.solver;  // failure stays contained
      EXPECT_TRUE(c.completed) << c.solver;
    }
  }
  EXPECT_TRUE(sawFailure);
  // Every wounded front point is covered by the healthy run: losing a member
  // never invents better points.
  for (const core::ParetoPoint& p : wounded.front) {
    bool covered = false;
    for (const core::ParetoPoint& q : healthy.front) {
      if (lessOrNearlyEqual(q.period, p.period) && lessOrNearlyEqual(q.latency, p.latency)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "(" << p.period << ", " << p.latency << ")";
  }
}

TEST(Portfolio, MemberFaultInPooledRunIsContainedToo) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 10, 6, 34);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.useExact = false;
  fault::ScopedFaultSpec scope("member.H1");
  for (const PortfolioResult& result :
       concurrently(4, [&] { return runPortfolio(eval, SweepSpec{8, 3}, config); })) {
    EXPECT_TRUE(result.degraded);
    EXPECT_FALSE(result.front.empty());
  }
}

}  // namespace
}  // namespace pipesched::service
