#include "pipesched/runtime/executor.hpp"

#include <chrono>
#include <memory>
#include <thread>

#include "pipesched/stream/channel.hpp"

namespace pipesched::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// One data set travelling through the worker chain.
struct Token {
  std::size_t index = 0;
};

/// Calibrated busy-wait: precise at the microsecond scale the executor uses.
void spinFor(double seconds) {
  if (seconds <= 0) return;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    // busy wait
  }
}

}  // namespace

ExecReport executeMapping(const core::Evaluator& eval, const core::IntervalMapping& mapping,
                          const ExecConfig& config) {
  mapping.validate(eval.pipeline().stageCount(), eval.platform().processorCount());
  if (config.datasetCount == 0) throw ModelError("executeMapping: datasetCount must be >= 1");
  if (config.timeScale <= 0) throw ModelError("executeMapping: timeScale must be > 0");

  const std::size_t m = mapping.intervalCount();

  // Per-interval wall-clock durations.
  std::vector<double> computeSec(m), inSec(m), outSec(m);
  for (std::size_t j = 0; j < m; ++j) {
    const core::CycleBreakdown b = eval.breakdown(mapping, j);
    computeSec[j] = b.compute * config.timeScale;
    inSec[j] = b.input * config.timeScale;
    outSec[j] = b.output * config.timeScale;
  }

  // Queues between workers; queue[j] feeds worker j (worker 0 self-feeds from
  // the source loop), queue[m] is the sink.
  std::vector<std::unique_ptr<stream::BoundedChannel<Token>>> queues;
  for (std::size_t q = 0; q <= m; ++q) {
    queues.push_back(std::make_unique<stream::BoundedChannel<Token>>(config.queueCapacity));
  }

  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    workers.emplace_back([&, j] {
      for (;;) {
        std::optional<Token> token = queues[j]->pop();
        if (!token) break;
        spinFor(inSec[j]);    // receive (one-port rendezvous: receiver's share)
        spinFor(computeSec[j]);
        spinFor(outSec[j]);   // send (sender's share)
        queues[j + 1]->push(*token);
      }
      queues[j + 1]->close();
    });
  }

  // Source: saturated stream of data sets. Runs on its own thread so the
  // main thread can drain the sink concurrently — otherwise backpressure from
  // the bounded queues deadlocks once datasetCount exceeds the total queue
  // capacity of the chain.
  std::thread source([&] {
    for (std::size_t k = 0; k < config.datasetCount; ++k) {
      queues[0]->push(Token{k});
    }
    queues[0]->close();
  });

  // Sink: drain and timestamp.
  ExecReport report;
  report.outputsInOrder = true;
  std::size_t expected = 0;
  for (;;) {
    std::optional<Token> token = queues[m]->pop();
    if (!token) break;
    const double t = std::chrono::duration<double>(Clock::now() - start).count();
    report.completionSeconds.push_back(t);
    if (token->index != expected++) report.outputsInOrder = false;
    ++report.processedCount;
  }
  source.join();
  for (auto& w : workers) w.join();

  if (!report.completionSeconds.empty()) {
    report.makespanSeconds = report.completionSeconds.back();
    const std::size_t k = report.completionSeconds.size();
    const std::size_t half = k / 2;
    if (k >= 2 && half + 1 < k) {
      report.steadyPeriodSeconds =
          (report.completionSeconds[k - 1] - report.completionSeconds[half]) /
          static_cast<double>(k - 1 - half);
      report.steadyPeriodModelUnits = report.steadyPeriodSeconds / config.timeScale;
    }
  }
  return report;
}

}  // namespace pipesched::runtime
