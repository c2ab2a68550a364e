// Trace spans and per-request breakdowns: span nesting and recording modes,
// disabled-mode zero-footprint, and the composition invariant
// stagesTotal() <= totalSeconds across the solve / batch / stream paths.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "pipesched/obs/trace.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"

namespace pipesched::obs {
namespace {

std::size_t idx(Stage stage) { return static_cast<std::size_t>(stage); }

service::Request makeRequest(std::uint64_t seed) {
  workload::Rng rng(seed);
  workload::InstancePair pair =
      workload::randomInstance(workload::ExperimentKind::kE2BalancedHetComm, 6, 4, rng);
  return service::Request{std::move(pair.pipeline), std::move(pair.platform),
                          core::CommModel::kSequential, service::SweepSpec{4, 3},
                          "trace-" + std::to_string(seed)};
}

TEST(StageNames, AreDistinctAndStable) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    names.insert(stageName(static_cast<Stage>(i)));
  }
  EXPECT_EQ(names.size(), kStageCount);
  EXPECT_EQ(std::string(stageName(Stage::kQueueWait)), "queue_wait");
  EXPECT_EQ(std::string(stageName(Stage::kMemberSolve)), "member_solve");
}

TEST(TraceSpan, DisabledModeRecordsNothing) {
  ScopedMetricsEnabled off(false);
  const std::uint64_t before = stageHistogram(Stage::kParse).snapshot().count;
  {
    TraceSpan span(Stage::kParse);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(span.stop(), 0.0);  // inactive span: no clock was read
  }
  EXPECT_EQ(stageHistogram(Stage::kParse).snapshot().count, before);
}

TEST(TraceSpan, RecordsIntoTheTraceWithoutMetrics) {
  ScopedMetricsEnabled off(false);
  const std::uint64_t before = stageHistogram(Stage::kMerge).snapshot().count;
  RequestTrace trace;
  {
    TraceSpan span(Stage::kMerge, &trace);
  }
  EXPECT_EQ(trace.stageCounts[idx(Stage::kMerge)], 1u);
  EXPECT_GE(trace.stageSeconds[idx(Stage::kMerge)], 0.0);
  // Metrics off: the per-process histogram stays untouched.
  EXPECT_EQ(stageHistogram(Stage::kMerge).snapshot().count, before);
}

TEST(TraceSpan, RecordsIntoTheHistogramWithMetrics) {
  ScopedMetricsEnabled on(true);
  const std::uint64_t before = stageHistogram(Stage::kEmit).snapshot().count;
  {
    TraceSpan span(Stage::kEmit);
  }
  EXPECT_EQ(stageHistogram(Stage::kEmit).snapshot().count, before + 1);
}

TEST(TraceSpan, StopIsIdempotent) {
  ScopedMetricsEnabled on(true);
  const std::uint64_t before = stageHistogram(Stage::kParse).snapshot().count;
  TraceSpan span(Stage::kParse);
  const double first = span.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.stop(), 0.0);
  EXPECT_EQ(stageHistogram(Stage::kParse).snapshot().count, before + 1);
}

TEST(TraceSpan, NestedSpansRecordTheirOwnStages) {
  // Spans nest lexically (parse around fingerprint around lookup); each
  // records only its own stage, and the outer span's time covers the inner.
  RequestTrace trace;
  {
    TraceSpan outer(Stage::kParse, &trace);
    {
      TraceSpan inner(Stage::kFingerprint, &trace);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(trace.stageCounts[idx(Stage::kParse)], 1u);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kFingerprint)], 1u);
  EXPECT_GE(trace.stageSeconds[idx(Stage::kParse)],
            trace.stageSeconds[idx(Stage::kFingerprint)]);
}

TEST(RequestTrace, StagesTotalSumsEverySlice) {
  RequestTrace trace;
  trace.add(Stage::kParse, 0.25);
  trace.add(Stage::kMerge, 0.5);
  trace.add(Stage::kMerge, 0.5);
  EXPECT_DOUBLE_EQ(trace.stagesTotal(), 1.25);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kMerge)], 2u);
}

TEST(ServiceTrace, DisabledModeAttachesNoTrace) {
  ASSERT_FALSE(tracingEnabled());
  service::SchedulingService svc(service::ServiceConfig{});
  const service::RequestOutcome outcome = svc.solve(makeRequest(1));
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.trace, nullptr);
}

TEST(ServiceTrace, SolveAttachesABreakdownWithinWallTime) {
  ScopedTracingEnabled tracing(true);
  service::SchedulingService svc(service::ServiceConfig{});
  const service::RequestOutcome outcome = svc.solve(makeRequest(2));
  ASSERT_TRUE(outcome.ok);
  ASSERT_NE(outcome.trace, nullptr);
  const RequestTrace& trace = *outcome.trace;
  EXPECT_GT(trace.totalSeconds, 0.0);
  EXPECT_LE(trace.stagesTotal(), trace.totalSeconds);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kFingerprint)], 1u);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kCacheLookup)], 1u);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kMemberSolve)], 1u);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kMerge)], 1u);
  EXPECT_FALSE(trace.members.empty());
  for (const auto& [solver, seconds] : trace.members) {
    EXPECT_FALSE(solver.empty());
    EXPECT_GE(seconds, 0.0);
  }
}

TEST(ServiceTrace, CacheHitTraceSkipsTheSolveStages) {
  ScopedTracingEnabled tracing(true);
  service::SchedulingService svc(service::ServiceConfig{});
  const service::Request request = makeRequest(3);
  ASSERT_TRUE(svc.solve(request).ok);
  const service::RequestOutcome warm = svc.solve(request);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.fromCache);
  ASSERT_NE(warm.trace, nullptr);
  const RequestTrace& trace = *warm.trace;
  EXPECT_EQ(trace.stageCounts[idx(Stage::kMemberSolve)], 0u);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kMerge)], 0u);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kCacheLookup)], 1u);
  EXPECT_TRUE(trace.members.empty());
  EXPECT_LE(trace.stagesTotal(), trace.totalSeconds);
}

TEST(ServiceTrace, BatchAttachesTracesToEveryOutcome) {
  ScopedTracingEnabled tracing(true);
  std::vector<service::Request> requests;
  requests.push_back(makeRequest(4));
  requests.push_back(makeRequest(5));
  requests.push_back(makeRequest(4));  // duplicate: deduped, shares the trace
  stream::StreamConfig config;
  config.workers = 2;
  stream::AsyncScheduler svc(config);
  const stream::BatchResult batch = stream::solveBatch(svc, requests);
  ASSERT_EQ(batch.stats.failed, 0u);
  for (const service::RequestOutcome& outcome : batch.outcomes) {
    ASSERT_NE(outcome.trace, nullptr);
    EXPECT_LE(outcome.trace->stagesTotal(), outcome.trace->totalSeconds);
    EXPECT_EQ(outcome.trace->stageCounts[idx(Stage::kFingerprint)], 1u);
  }
  // The dedup copy shares the group's trace object.
  EXPECT_EQ(batch.outcomes[0].trace, batch.outcomes[2].trace);
}

TEST(StreamTrace, WorkerPathRecordsQueueWait) {
  ScopedTracingEnabled tracing(true);
  stream::StreamConfig config;
  config.workers = 1;
  stream::AsyncScheduler scheduler(config);
  auto future = scheduler.submit(makeRequest(6));
  const service::RequestOutcome outcome = future.get();
  ASSERT_TRUE(outcome.ok);
  ASSERT_NE(outcome.trace, nullptr);
  const RequestTrace& trace = *outcome.trace;
  EXPECT_EQ(trace.stageCounts[idx(Stage::kQueueWait)], 1u);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kFingerprint)], 1u);
  EXPECT_EQ(trace.stageCounts[idx(Stage::kMemberSolve)], 1u);
  EXPECT_LE(trace.stagesTotal(), trace.totalSeconds);
}

TEST(StreamTrace, DisabledModeStaysTraceFree) {
  ASSERT_FALSE(tracingEnabled());
  stream::StreamConfig config;
  config.workers = 1;
  stream::AsyncScheduler scheduler(config);
  auto future = scheduler.submit(makeRequest(7));
  const service::RequestOutcome outcome = future.get();
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.trace, nullptr);
}

}  // namespace
}  // namespace pipesched::obs
