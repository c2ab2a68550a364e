// The pluggable-member registry: catalog integrity, id resolution, member
// acceptance rules, back-compat of the default race, the committed
// strict-improvement scenario, and per-member stats plumbing through
// stream::solveBatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pipesched/service/service.hpp"
#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::service {
namespace {

workload::InstancePair instanceFor(workload::ExperimentKind kind, std::size_t n, std::size_t p,
                                   std::uint64_t seed) {
  workload::Rng rng(seed);
  return workload::randomInstance(kind, n, p, rng);
}

TEST(PortfolioMembers, CatalogListsEveryIdOnceInRaceOrder) {
  const std::vector<PortfolioMemberInfo> catalog = portfolioMemberCatalog();
  const std::vector<std::string> ids = allPortfolioMembers();
  ASSERT_EQ(catalog.size(), ids.size());
  std::set<std::string> seen;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(catalog[i].id, ids[i]);
    EXPECT_FALSE(catalog[i].solver.empty());
    EXPECT_FALSE(catalog[i].description.empty());
    EXPECT_TRUE(seen.insert(catalog[i].id).second) << "duplicate id " << catalog[i].id;
  }
  // 6 heuristics + 6 local-search refiners + 6 annealing refiners + 2 c2c
  // solvers + the exact enumerator.
  EXPECT_EQ(catalog.size(), 21u);
}

TEST(PortfolioMembers, DefaultSetIsTheLegacyRace) {
  const std::vector<std::string> expected = {"H1", "H2", "H3", "H4", "H5", "H6", "exact"};
  EXPECT_EQ(defaultPortfolioMembers(), expected);
  PortfolioConfig config;  // members empty
  const auto members = makePortfolioMembers(config);
  ASSERT_EQ(members.size(), expected.size());
  for (std::size_t i = 0; i < members.size(); ++i) EXPECT_EQ(members[i]->id(), expected[i]);
}

TEST(PortfolioMembers, EveryCatalogIdResolvesToItself) {
  PortfolioConfig config;
  config.members = allPortfolioMembers();
  const auto members = makePortfolioMembers(config);
  const auto catalog = portfolioMemberCatalog();
  ASSERT_EQ(members.size(), catalog.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(members[i]->id(), catalog[i].id);
    EXPECT_EQ(members[i]->solverName(), catalog[i].solver);
  }
}

TEST(PortfolioMembers, UnknownIdThrowsModelError) {
  for (const std::string bad : {"H7", "H0", "ls:H7", "sa:", "c2c:dp", "Exact", ""}) {
    PortfolioConfig config;
    config.members = {bad};
    EXPECT_THROW((void)makePortfolioMembers(config), ModelError) << "id '" << bad << "'";
  }
}

TEST(PortfolioMembers, ExplicitDefaultListMatchesImplicitDefaultByteForByte) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 8, 5, 21);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  const SweepSpec sweep{8, 3};
  PortfolioConfig implicit;  // members empty -> default set
  PortfolioConfig explicitList;
  explicitList.members = defaultPortfolioMembers();
  const auto renderOf = [](const PortfolioResult& r) {
    RequestOutcome o;
    o.ok = true;
    o.result = r;
    return describeOutcome(o);
  };
  EXPECT_EQ(renderOf(runPortfolio(eval, sweep, implicit)),
            renderOf(runPortfolio(eval, sweep, explicitList)));
}

TEST(PortfolioMembers, C2cMembersAcceptOnlyCommHomogeneousPlatforms) {
  workload::Rng rng(5);
  core::Pipeline pipeline = workload::randomPipeline(
      workload::ExperimentKind::kE2BalancedHetComm, 8, rng);
  const core::Platform hetero = workload::randomHeterogeneousPlatform(4, rng);
  ASSERT_FALSE(hetero.isCommHomogeneous());
  const core::Evaluator eval(pipeline, hetero);
  PortfolioConfig config;
  config.members = {"c2c", "c2c:ls", "H1"};
  const PortfolioResult result = runPortfolio(eval, SweepSpec{4, 2}, config);
  // Only H1 accepted: the c2c solvers have no comm-homogeneous chain to cut.
  ASSERT_EQ(result.solvers.size(), 1u);
  EXPECT_EQ(result.solvers.front().solver, "H1-SpMonoP");
}

TEST(PortfolioMembers, C2cMembersJoinOnCommHomogeneousPlatforms) {
  const auto inst = instanceFor(workload::ExperimentKind::kE1BalancedHomComm, 8, 4, 9);
  ASSERT_TRUE(inst.platform.isCommHomogeneous());
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.members = {"c2c", "c2c:ls"};
  const PortfolioResult result = runPortfolio(eval, SweepSpec{4, 2}, config);
  ASSERT_EQ(result.solvers.size(), 2u);
  EXPECT_EQ(result.solvers[0].solver, "c2c-dp");
  EXPECT_EQ(result.solvers[1].solver, "c2c-ls");
  // The DP ladder runs one unit per processor count and every unit yields a
  // genuine evaluated mapping.
  EXPECT_EQ(result.solvers[0].units, inst.platform.processorCount());
  EXPECT_EQ(result.solvers[0].points, inst.platform.processorCount());
  EXPECT_FALSE(result.front.empty());
  for (const core::ParetoPoint& p : result.front) ASSERT_TRUE(p.mapping.has_value());
}

TEST(PortfolioMembers, ExactListedButIneligibleStaysOut) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 14, 8, 3);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.members = {"H1", "exact"};
  ASSERT_FALSE(exactEligible(14, 8, config));
  const PortfolioResult result = runPortfolio(eval, SweepSpec{4, 2}, config);
  EXPECT_FALSE(result.exactUsed);
  ASSERT_EQ(result.solvers.size(), 1u);
  EXPECT_EQ(result.solvers.front().solver, "H1-SpMonoP");
}

TEST(PortfolioMembers, RefinerMembersReportSweepUnits) {
  const auto inst = instanceFor(workload::ExperimentKind::kE3LargeComputations, 8, 4, 17);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.members = {"ls:H1", "sa:H5"};
  config.annealingMoves = 200;
  const SweepSpec sweep{6, 3};
  const PortfolioResult result = runPortfolio(eval, sweep, config);
  ASSERT_EQ(result.solvers.size(), 2u);
  EXPECT_EQ(result.solvers[0].solver, "ls:H1");
  EXPECT_EQ(result.solvers[1].solver, "sa:H5");
  for (const SolverContribution& c : result.solvers) {
    EXPECT_EQ(c.units, sweep.points) << c.solver;
    EXPECT_TRUE(c.completed) << c.solver;
    EXPECT_GT(c.points, 0u) << c.solver;
  }
}

// The committed strict-improvement scenario (also pinned by the golden file
// tests/golden/batch_members_all.json): on E2 n=12 p=6 seed 2, the widened
// portfolio finds front points whose coordinates no H1..H6 sweep produces.
TEST(PortfolioMembers, WidenedPortfolioStrictlyImprovesTheCommittedScenario) {
  workload::Rng rng(2);
  const workload::InstancePair inst = workload::randomInstance(
      workload::ExperimentKind::kE2BalancedHetComm, 12, 6, rng);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  const SweepSpec sweep{8, 3};
  PortfolioConfig hOnly;
  hOnly.useExact = false;  // n*p = 72 cells: ineligible anyway
  PortfolioConfig wide;
  wide.useExact = false;
  wide.members = allPortfolioMembers();
  const PortfolioResult base = runPortfolio(eval, sweep, hOnly);
  const PortfolioResult widened = runPortfolio(eval, sweep, wide);

  // Point-for-point, the widened front covers the H-only front...
  for (const core::ParetoPoint& q : base.front) {
    const bool covered = std::any_of(
        widened.front.begin(), widened.front.end(), [&](const core::ParetoPoint& p) {
          return lessOrNearlyEqual(p.period, q.period) &&
                 lessOrNearlyEqual(p.latency, q.latency);
        });
    EXPECT_TRUE(covered) << "(" << q.period << ", " << q.latency << ")";
  }
  // ... and strictly improves it: at least one widened front point is
  // credited to a non-H member, i.e. its coordinates exist in no H sweep.
  std::uint64_t nonHMerged = 0;
  for (const SolverContribution& c : widened.solvers) {
    if (c.solver.rfind("H", 0) != 0) nonHMerged += c.merged;
  }
  EXPECT_GT(nonHMerged, 0u);
  // The improvement is visible in the front itself, not only in credits.
  const bool newPoint = std::any_of(
      widened.front.begin(), widened.front.end(), [&](const core::ParetoPoint& p) {
        return std::none_of(base.front.begin(), base.front.end(),
                            [&](const core::ParetoPoint& q) {
                              return nearlyEqual(p.period, q.period) &&
                                     nearlyEqual(p.latency, q.latency);
                            });
      });
  EXPECT_TRUE(newPoint);
}

TEST(PortfolioMembers, MergedCreditsSumToFrontSize) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 10, 5, 31);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.members = allPortfolioMembers();
  config.annealingMoves = 200;
  const PortfolioResult result = runPortfolio(eval, SweepSpec{6, 3}, config);
  std::uint64_t credited = 0;
  for (const SolverContribution& c : result.solvers) credited += c.merged;
  EXPECT_EQ(credited, result.front.size());
}

TEST(PortfolioMembers, BatchSurfacesPerMemberStats) {
  std::vector<Request> requests;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    workload::InstancePair inst =
        instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 8, 5, 100 + seed);
    requests.push_back(Request{std::move(inst.pipeline), std::move(inst.platform),
                               core::CommModel::kSequential, SweepSpec{6, 3},
                               "m-" + std::to_string(seed)});
  }
  stream::StreamConfig config;
  config.service.portfolio.members = {"H1", "ls:H1", "c2c"};
  stream::AsyncScheduler svc(config);
  const stream::BatchResult batch = stream::solveBatch(svc, requests);
  ASSERT_EQ(batch.stats.solved, 3u);
  ASSERT_EQ(batch.stats.members.size(), 3u);
  EXPECT_EQ(batch.stats.members[0].solver, "H1-SpMonoP");
  EXPECT_EQ(batch.stats.members[1].solver, "ls:H1");
  EXPECT_EQ(batch.stats.members[2].solver, "c2c-dp");
  for (const stream::MemberBatchStats& m : batch.stats.members) {
    EXPECT_EQ(m.runs, 3u) << m.solver;
    EXPECT_GT(m.points, 0u) << m.solver;
  }

  // A warm re-run is pure cache traffic: member stats stay at zero.
  const stream::BatchResult warm = stream::solveBatch(svc, requests);
  EXPECT_EQ(warm.stats.cacheHits, 3u);
  EXPECT_TRUE(warm.stats.members.empty());
}

TEST(PortfolioMembers, BatchMemberStatsIdenticalSerialVsPooled) {
  std::vector<Request> requests;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    workload::InstancePair inst =
        instanceFor(workload::ExperimentKind::kE1BalancedHomComm, 8, 4, 200 + seed);
    requests.push_back(Request{std::move(inst.pipeline), std::move(inst.platform),
                               core::CommModel::kSequential, SweepSpec{6, 3},
                               "p-" + std::to_string(seed)});
  }
  const auto statsAt = [&](std::size_t workers) {
    stream::StreamConfig config;
    config.workers = workers;
    config.service.cacheCapacity = 0;
    config.service.portfolio.members = allPortfolioMembers();
    config.service.portfolio.annealingMoves = 200;
    config.service.portfolio.dropAfter = 2;
    stream::AsyncScheduler svc(config);
    return stream::solveBatch(svc, requests).stats.members;
  };
  const std::vector<stream::MemberBatchStats> serial = statsAt(0);
  const std::vector<stream::MemberBatchStats> pooled = statsAt(4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].solver, pooled[i].solver);
    EXPECT_EQ(serial[i].runs, pooled[i].runs) << serial[i].solver;
    EXPECT_EQ(serial[i].points, pooled[i].points) << serial[i].solver;
    EXPECT_EQ(serial[i].novel, pooled[i].novel) << serial[i].solver;
    EXPECT_EQ(serial[i].merged, pooled[i].merged) << serial[i].solver;
    EXPECT_EQ(serial[i].skipped, pooled[i].skipped) << serial[i].solver;
    EXPECT_EQ(serial[i].dropped, pooled[i].dropped) << serial[i].solver;
  }
}

TEST(PortfolioMembers, OverlappedCommModelRunsTheWideRaceDeterministically) {
  const auto inst = instanceFor(workload::ExperimentKind::kE4SmallComputations, 8, 4, 51);
  const core::Evaluator eval(inst.pipeline, inst.platform, core::CommModel::kOverlapped);
  PortfolioConfig config;
  config.members = allPortfolioMembers();
  config.annealingMoves = 200;
  const auto renderOf = [](const PortfolioResult& r) {
    RequestOutcome o;
    o.ok = true;
    o.result = r;
    return describeOutcome(o);
  };
  const std::string serial = renderOf(runPortfolio(eval, SweepSpec{5, 2}, config));
  EXPECT_EQ(serial, renderOf(runPortfolio(eval, SweepSpec{5, 2}, config)));
}

TEST(PortfolioMembers, DropAfterZeroNeverDropsEvenOnLongPlateaus) {
  workload::Rng rng(77);
  const workload::InstancePair inst =
      workload::randomInstance(workload::ExperimentKind::kE1BalancedHomComm, 6, 2, rng);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;  // dropAfter defaults to 0
  config.members = allPortfolioMembers();
  config.annealingMoves = 200;
  const PortfolioResult result = runPortfolio(eval, SweepSpec{16, 3}, config);
  for (const SolverContribution& c : result.solvers) {
    EXPECT_FALSE(c.dropped) << c.solver;
    EXPECT_EQ(c.skipped, 0u) << c.solver;
  }
}

TEST(PortfolioMembers, WorkBudgetAppliesToEveryMemberKind) {
  const auto inst = instanceFor(workload::ExperimentKind::kE2BalancedHetComm, 10, 5, 41);
  const core::Evaluator eval(inst.pipeline, inst.platform);
  PortfolioConfig config;
  config.members = {"H1", "ls:H1", "c2c"};
  config.budget.maxRunsPerSolver = 2;
  const PortfolioResult result = runPortfolio(eval, SweepSpec{8, 3}, config);
  EXPECT_TRUE(result.budgetExhausted);
  for (const SolverContribution& c : result.solvers) {
    EXPECT_FALSE(c.completed) << c.solver;
    EXPECT_LE(c.points, 2u) << c.solver;
  }
}

}  // namespace
}  // namespace pipesched::service
