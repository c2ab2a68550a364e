// Tests of the thread-based skeleton executor: functional correctness
// (ordering, counts) with deliberately loose timing assertions so the suite
// stays robust on loaded CI machines.
#include <gtest/gtest.h>


#include "pipesched/heuristics/heuristics.hpp"
#include "pipesched/runtime/executor.hpp"
#include "pipesched/workload/scenarios.hpp"

namespace pipesched::runtime {
namespace {

TEST(Executor, ProcessesEveryDatasetInOrder) {
  const core::Pipeline pipe({2, 3, 1}, {1, 1, 1, 1});
  const core::Platform plat({4, 2, 1}, 10);
  const core::Evaluator eval(pipe, plat);
  const auto mapping = core::IntervalMapping::fromCuts(3, {0, 2}, {0, 1});
  ExecConfig config;
  config.datasetCount = 40;
  config.timeScale = 5e-6;  // keep the test fast
  const ExecReport r = executeMapping(eval, mapping, config);
  EXPECT_EQ(r.processedCount, 40u);
  EXPECT_TRUE(r.outputsInOrder);
  EXPECT_EQ(r.completionSeconds.size(), 40u);
  for (std::size_t k = 1; k < r.completionSeconds.size(); ++k) {
    EXPECT_GE(r.completionSeconds[k], r.completionSeconds[k - 1]);
  }
}

TEST(Executor, SingleIntervalWorks) {
  const core::Pipeline pipe({2, 3}, {1, 1, 1});
  const core::Platform plat({4}, 10);
  const core::Evaluator eval(pipe, plat);
  ExecConfig config;
  config.datasetCount = 10;
  config.timeScale = 5e-6;
  const ExecReport r =
      executeMapping(eval, core::IntervalMapping::singleInterval(2, 0), config);
  EXPECT_EQ(r.processedCount, 10u);
  EXPECT_TRUE(r.outputsInOrder);
}

TEST(Executor, ThroughputIsInTheRightBallpark) {
  // The measured steady period must be at least the model period (physics)
  // and not absurdly larger (sanity); generous bounds keep this stable.
  const workload::Scenario scenario = workload::imageProcessingScenario();
  const core::Platform plat = workload::labCluster();
  const core::Evaluator eval(scenario.pipeline, plat);
  const auto mapping =
      heuristics::spMonoP(eval, eval.period(eval.optimalLatencyMapping()) * 0.7).mapping;
  ExecConfig config;
  config.datasetCount = 60;
  config.timeScale = 2e-4;
  const ExecReport r = executeMapping(eval, mapping, config);
  const double predicted = eval.period(mapping);
  ASSERT_GT(r.steadyPeriodModelUnits, 0);
  EXPECT_GT(r.steadyPeriodModelUnits, predicted * 0.5);
  EXPECT_LT(r.steadyPeriodModelUnits, predicted * 20);
}

TEST(Executor, BackpressureDoesNotDeadlock) {
  // Regression: the source used to feed all tokens from the sink-draining
  // thread, which deadlocked once datasetCount exceeded the chain's total
  // queue capacity. Tiny queues + a slow downstream stage maximise
  // backpressure; the run must still complete.
  const core::Pipeline pipe({1, 50}, {1, 1, 1});
  const core::Platform plat({10, 1}, 10);
  const core::Evaluator eval(pipe, plat);
  const auto mapping = core::IntervalMapping::fromCuts(2, {0, 1}, {0, 1});
  ExecConfig config;
  config.datasetCount = 100;
  config.queueCapacity = 1;
  config.timeScale = 2e-6;
  const ExecReport r = executeMapping(eval, mapping, config);
  EXPECT_EQ(r.processedCount, 100u);
  EXPECT_TRUE(r.outputsInOrder);
}

TEST(Executor, ValidatesInputs) {
  const core::Pipeline pipe({2}, {0, 0});
  const core::Platform plat({1}, 1);
  const core::Evaluator eval(pipe, plat);
  ExecConfig config;
  config.datasetCount = 0;
  EXPECT_THROW((void)executeMapping(eval, core::IntervalMapping::singleInterval(1, 0), config),
               ModelError);
  config.datasetCount = 1;
  config.timeScale = 0;
  EXPECT_THROW((void)executeMapping(eval, core::IntervalMapping::singleInterval(1, 0), config),
               ModelError);
}

}  // namespace
}  // namespace pipesched::runtime
