// The streaming engine end to end: byte-identity with serial per-request
// solves across worker counts and queue capacities, strict input-order
// emission, the bounded-memory window (instrumented at the Source/Sink
// seam), failure pass-through, cross-pass cache reuse, and solveBatch's
// in-batch dedupe.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "pipesched/stream/engine.hpp"
#include "pipesched/workload/generator.hpp"
#include "pipesched/workload/scenarios.hpp"

namespace pipesched::stream {
namespace {

/// Named scenarios plus one generated instance per regime — the mix the
/// acceptance criteria call out for the equivalence test.
std::vector<service::Request> mixedRequests(std::uint64_t seed, std::size_t points = 6) {
  const service::SweepSpec sweep{points, 3};
  std::vector<service::Request> requests;
  const core::Platform lab = workload::labCluster();
  for (workload::Scenario& scenario : workload::allScenarios()) {
    requests.push_back(service::Request{std::move(scenario.pipeline), lab,
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
    workload::InstancePair pair = workload::randomInstance(kind, 7, 4, rng);
    std::ostringstream name;
    name << workload::experimentName(kind) << "-stream";
    requests.push_back(service::Request{std::move(pair.pipeline), std::move(pair.platform),
                                        core::CommModel::kSequential, sweep, name.str()});
  }
  return requests;
}

TEST(StreamEngine, OutcomesAreByteIdenticalToSolveBatchAcrossConfigs) {
  const std::vector<service::Request> requests = mixedRequests(11);

  // The reference: a per-request serial solve with the cache off, which
  // shares nothing with the stream engine.
  service::ServiceConfig serialConfig;
  serialConfig.cacheCapacity = 0;
  service::SchedulingService reference(serialConfig);
  std::vector<service::RequestOutcome> expected;
  for (const service::Request& request : requests) {
    expected.push_back(reference.solve(request));
    ASSERT_TRUE(expected.back().ok) << request.name;
  }

  struct Config {
    std::size_t workers;
    std::size_t queueCapacity;
  };
  // The acceptance grid: workers 0/2/4, capacities from minimal to roomy.
  const Config configs[] = {{0, 1}, {2, 1}, {2, 4}, {4, 2}, {4, 64}};
  for (const Config& cfg : configs) {
    StreamConfig config;
    config.workers = cfg.workers;
    config.queueCapacity = cfg.queueCapacity;
    AsyncScheduler scheduler(config);
    VectorSource source(requests);
    CollectSink sink;
    const EngineStats stats = runStream(source, sink, scheduler);

    EXPECT_EQ(stats.requests, requests.size());
    EXPECT_EQ(stats.failed, 0u);
    ASSERT_EQ(sink.items.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(service::describeOutcome(sink.items[i].outcome),
                service::describeOutcome(expected[i]))
          << "workers=" << cfg.workers << " capacity=" << cfg.queueCapacity << " slot " << i;
    }
  }
}

TEST(StreamEngine, EmissionIsInInputOrder) {
  StreamConfig config;
  config.workers = 4;
  config.queueCapacity = 2;
  AsyncScheduler scheduler(config);
  VectorSource source(mixedRequests(13, 4));
  CollectSink sink;
  (void)runStream(source, sink, scheduler);
  for (std::size_t i = 0; i < sink.items.size(); ++i) {
    EXPECT_EQ(sink.items[i].index, i);
  }
}

/// Instruments the pull-to-emit window: counts requests that have been
/// pulled from the inner source but not yet emitted. The engine pumps from
/// one thread, so plain counters suffice.
class CountingSource : public Source {
 public:
  explicit CountingSource(Source& inner) : inner_(&inner) {}

  std::optional<service::Request> next() override {
    std::optional<service::Request> request = inner_->next();
    if (request) {
      ++live_;
      maxLive_ = std::max(maxLive_, live_);
    }
    return request;
  }

  void onEmit() { --live_; }
  [[nodiscard]] std::size_t maxLive() const noexcept { return maxLive_; }

 private:
  Source* inner_;
  std::size_t live_ = 0;
  std::size_t maxLive_ = 0;
};

class CountingSink : public Sink {
 public:
  explicit CountingSink(CountingSource& source) : source_(&source) {}

  void emit(std::size_t, const service::Request&, const service::RequestOutcome&) override {
    source_->onEmit();
    ++emitted_;
  }

  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }

 private:
  CountingSource* source_;
  std::size_t emitted_ = 0;
};

TEST(StreamEngine, NeverHoldsMoreThanQueuePlusInFlightRequests) {
  // 40 requests through a capacity-2 queue with 2 workers: at no point may
  // more than capacity + workers + 1 requests exist between pull and emit —
  // lazy ingestion and incremental emission, not a disguised batch load.
  GeneratorSource::Spec spec;
  spec.kind = workload::ExperimentKind::kE1BalancedHomComm;
  spec.count = 40;
  spec.stages = 4;
  spec.processors = 3;
  spec.seed = 99;
  spec.sweep = service::SweepSpec{3, 3};
  GeneratorSource generator(spec);
  CountingSource source(generator);
  CountingSink sink(source);

  StreamConfig config;
  config.workers = 2;
  config.queueCapacity = 2;
  AsyncScheduler scheduler(config);
  const EngineStats stats = runStream(source, sink, scheduler);

  EXPECT_EQ(stats.requests, 40u);
  EXPECT_EQ(sink.emitted(), 40u);
  const std::size_t window = config.queueCapacity + config.workers;
  EXPECT_LE(source.maxLive(), window + 1);
  // The scheduler's own high-water can additionally lag by up to one
  // uncounted completion per worker (futures become ready just before the
  // completion counters are bumped), so its bound is window + workers.
  EXPECT_LE(stats.stream.maxInFlight, window + config.workers);
}

TEST(StreamEngine, FailuresFlowToTheSinkInPlace) {
  std::vector<service::Request> requests = mixedRequests(17, 4);
  requests[2].sweep.points = 0;  // fails in the portfolio
  StreamConfig config;
  config.workers = 2;
  config.queueCapacity = 4;
  AsyncScheduler scheduler(config);
  VectorSource source(requests);
  CollectSink sink;
  const EngineStats stats = runStream(source, sink, scheduler);
  EXPECT_EQ(stats.failed, 1u);
  ASSERT_EQ(sink.items.size(), requests.size());
  EXPECT_FALSE(sink.items[2].outcome.ok);
  EXPECT_FALSE(sink.items[2].outcome.error.empty());
  for (std::size_t i = 0; i < sink.items.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(sink.items[i].outcome.ok) << "slot " << i;
  }
}

TEST(StreamEngine, SecondPassThroughTheSameSchedulerHitsTheCache) {
  const std::vector<service::Request> requests = mixedRequests(19, 4);
  StreamConfig config;
  config.workers = 2;
  config.queueCapacity = 4;
  AsyncScheduler scheduler(config);

  VectorSource first(requests);
  CollectSink coldSink;
  const EngineStats cold = runStream(first, coldSink, scheduler);
  EXPECT_EQ(cold.stream.cacheHits, 0u);

  VectorSource second(requests);
  CollectSink warmSink;
  const EngineStats warm = runStream(second, warmSink, scheduler);
  EXPECT_EQ(warm.stream.cacheHits, requests.size());  // cumulative snapshot: all pass-2

  ASSERT_EQ(coldSink.items.size(), warmSink.items.size());
  for (std::size_t i = 0; i < coldSink.items.size(); ++i) {
    EXPECT_EQ(service::describeOutcome(coldSink.items[i].outcome),
              service::describeOutcome(warmSink.items[i].outcome))
        << "slot " << i;
  }
}

TEST(StreamEngine, SolveBatchMarksInBatchDuplicatesDedupedAtEveryWorkerCount) {
  // Every request twice, the copies after the originals: each copy comes
  // back deduped — not from the cache, not re-solved — whatever the worker
  // count, with the result cache on or off.
  const std::vector<service::Request> unique = mixedRequests(29, 4);
  std::vector<service::Request> requests = unique;
  requests.insert(requests.end(), unique.begin(), unique.end());
  for (const std::size_t workers : {0, 2, 4}) {
    for (const std::size_t cacheCapacity : {1024, 0}) {
      StreamConfig config;
      config.workers = workers;
      config.service.cacheCapacity = cacheCapacity;
      AsyncScheduler scheduler(config);
      const BatchResult batch = solveBatch(scheduler, requests);
      const BatchStats& s = batch.stats;
      const std::string where =
          "workers=" + std::to_string(workers) + " cache=" + std::to_string(cacheCapacity);
      EXPECT_EQ(s.requests, requests.size()) << where;
      EXPECT_EQ(s.solved, unique.size()) << where;
      EXPECT_EQ(s.deduped, unique.size()) << where;
      EXPECT_EQ(s.cacheHits, 0u) << where;
      EXPECT_EQ(s.failed, 0u) << where;
      EXPECT_EQ(s.solved + s.cacheHits + s.deduped + s.failed, s.requests) << where;
      EXPECT_EQ(scheduler.stats().solved, unique.size()) << where;  // one solve per key
      ASSERT_EQ(batch.outcomes.size(), requests.size()) << where;
      for (std::size_t i = 0; i < unique.size(); ++i) {
        const service::RequestOutcome& original = batch.outcomes[i];
        const service::RequestOutcome& copy = batch.outcomes[unique.size() + i];
        EXPECT_FALSE(original.deduped) << where << " slot " << i;
        EXPECT_FALSE(original.fromCache) << where << " slot " << i;
        EXPECT_TRUE(copy.deduped) << where << " slot " << i;
        EXPECT_FALSE(copy.fromCache) << where << " slot " << i;
        EXPECT_EQ(service::describeOutcome(original), service::describeOutcome(copy))
            << where << " slot " << i;
      }
    }
  }
}

TEST(StreamEngine, AThrowingSourceDrainsInFlightWorkBeforePropagating) {
  class ThrowingSource : public Source {
   public:
    explicit ThrowingSource(std::vector<service::Request> head) : head_(std::move(head)) {}
    std::optional<service::Request> next() override {
      if (cursor_ < head_.size()) return head_[cursor_++];
      throw std::runtime_error("disk fell off");
    }

   private:
    std::vector<service::Request> head_;
    std::size_t cursor_ = 0;
  };

  StreamConfig config;
  config.workers = 2;
  config.queueCapacity = 4;
  AsyncScheduler scheduler(config);
  ThrowingSource source(mixedRequests(23, 3));
  CollectSink sink;
  EXPECT_THROW((void)runStream(source, sink, scheduler), std::runtime_error);
  // Nothing is left dangling: the scheduler settles immediately.
  scheduler.drain();
  const StreamStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

}  // namespace
}  // namespace pipesched::stream
