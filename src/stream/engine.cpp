#include "pipesched/stream/engine.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <unordered_map>
#include <utility>

#include "pipesched/obs/metrics.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/service/fingerprint.hpp"

namespace pipesched::stream {

namespace {

using Clock = std::chrono::steady_clock;

/// One submitted-but-not-yet-emitted request: the pump's reorder window slot.
struct Pending {
  service::Request request;
  std::future<service::RequestOutcome> future;
};

}  // namespace

EngineStats runStream(Source& source, Sink& sink, AsyncScheduler& scheduler) {
  const Clock::time_point start = Clock::now();
  EngineStats stats;

  const StreamConfig& config = scheduler.config();
  const std::size_t window =
      config.queueCapacity + std::max<std::size_t>(config.workers, 1);

  std::deque<Pending> pending;
  std::size_t nextIndex = 0;  // stream index of pending.front()

  const auto emitFront = [&] {
    Pending slot = std::move(pending.front());
    pending.pop_front();
    const service::RequestOutcome outcome = slot.future.get();
    if (!outcome.ok) ++stats.failed;
    {
      // Registry-only span: the outcome's per-request trace was sealed when
      // the solve completed, so emission cost shows up in stage.emit rather
      // than retroactively inside breakdowns already handed out.
      obs::TraceSpan emitSpan(obs::Stage::kEmit);
      sink.emit(nextIndex++, slot.request, outcome);
    }
    ++stats.requests;
  };

  try {
    for (;;) {
      // Admission control: never hold more than `window` requests between
      // pull and emission — this, not the sink, is what bounds memory.
      while (pending.size() >= window) emitFront();
      std::optional<service::Request> request = source.next();
      if (!request) break;
      // Braced init evaluates left to right: copy for the sink first, then
      // the move into the scheduler.
      pending.push_back(Pending{*request, scheduler.submit(std::move(*request))});
      // Opportunistic in-order emission: whatever has already completed at
      // the head of the window goes out now, keeping the sink incremental.
      while (!pending.empty() &&
             pending.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        emitFront();
      }
    }
    while (!pending.empty()) emitFront();
  } catch (...) {
    // A throwing source/sink must not leave submitted work dangling: wait
    // for every outstanding future, then rethrow.
    for (Pending& slot : pending) {
      if (slot.future.valid()) slot.future.wait();
    }
    throw;
  }

  // Futures become ready slightly before the scheduler's completion counters
  // are bumped; drain() waits on the counters, so the snapshot below is
  // settled for everything this pass submitted.
  if (obs::metricsEnabled()) {
    const obs::TraceClock::time_point drainStart = obs::TraceClock::now();
    scheduler.drain();
    static obs::Histogram& drainHist =
        obs::registry().histogram(obs::names::kDrain, obs::Unit::kNanoseconds);
    drainHist.recordSeconds(obs::secondsSince(drainStart));
  } else {
    scheduler.drain();
  }
  stats.wallSeconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (stats.wallSeconds > 0 && stats.requests > 0) {
    stats.requestsPerSecond = static_cast<double>(stats.requests) / stats.wallSeconds;
  }
  stats.stream = scheduler.stats();
  return stats;
}

void MemberBatchStats::add(const service::SolverContribution& c) {
  runs += 1;
  points += c.points;
  novel += c.novel;
  merged += c.merged;
  skipped += c.skipped;
  dropped += c.dropped ? 1 : 0;
  reused += c.reused;
  seeded += c.seeded;
}

void MemberBatchStats::merge(const MemberBatchStats& other) {
  runs += other.runs;
  points += other.points;
  novel += other.novel;
  merged += other.merged;
  skipped += other.skipped;
  dropped += other.dropped;
  reused += other.reused;
  seeded += other.seeded;
}

namespace {

/// The row for `solver`, appended on first sight (first-seen order).
MemberBatchStats& memberRow(std::vector<MemberBatchStats>& members, const std::string& solver) {
  const auto it = std::find_if(members.begin(), members.end(),
                               [&](const MemberBatchStats& m) { return m.solver == solver; });
  if (it != members.end()) return *it;
  members.push_back(MemberBatchStats{solver});
  return members.back();
}

/// solveBatch's sink: stream index i is group i's representative. Its
/// outcome lands in every input slot of the group — the first as solved,
/// the others as `deduped` copies — and is folded into the batch stats.
class GroupSink : public Sink {
 public:
  GroupSink(const std::vector<std::vector<std::size_t>>& groups, BatchResult& batch)
      : groups_(groups), batch_(batch) {}

  void emit(std::size_t index, const service::Request& /*request*/,
            const service::RequestOutcome& outcome) override {
    const std::vector<std::size_t>& slots = groups_[index];
    BatchStats& s = batch_.stats;
    if (!outcome.ok) {
      s.failed += 1;
    } else if (outcome.fromCache) {
      s.cacheHits += 1;
    } else {
      s.addSolve(outcome.result.solvers);
    }
    batch_.outcomes[slots.front()] = outcome;
    // The service counted the solved slot in the registry; duplicate slots
    // are counted here, under the same failed/degraded buckets. Duplicates of
    // a failed group count as failed, so the buckets still sum to `requests`.
    for (std::size_t d = 1; d < slots.size(); ++d) {
      service::RequestOutcome& copy = batch_.outcomes[slots[d]];
      copy = outcome;
      copy.deduped = true;
      if (outcome.ok) {
        s.deduped += 1;
      } else {
        s.failed += 1;
      }
      if (obs::metricsEnabled()) {
        if (!outcome.ok) {
          obs::registry().counter(obs::names::kRequestsFailed).add();
        } else if (outcome.result.degraded) {
          obs::registry().counter(obs::names::kDegradedResponses).add();
        }
      }
    }
  }

 private:
  const std::vector<std::vector<std::size_t>>& groups_;
  BatchResult& batch_;
};

}  // namespace

void BatchStats::addSolve(const std::vector<service::SolverContribution>& solvers) {
  solved += 1;
  for (const service::SolverContribution& c : solvers) {
    memberRow(members, c.solver).add(c);
    subHits += c.reused + c.seeded;
    subUnitsReused += c.reused;
  }
}

void BatchStats::merge(const BatchStats& other) {
  requests += other.requests;
  solved += other.solved;
  failed += other.failed;
  cacheHits += other.cacheHits;
  deduped += other.deduped;
  subHits += other.subHits;
  subUnitsReused += other.subUnitsReused;
  wallSeconds += other.wallSeconds;
  requestsPerSecond = wallSeconds > 0 ? static_cast<double>(requests) / wallSeconds : 0;
  for (const MemberBatchStats& m : other.members) memberRow(members, m.solver).merge(m);
}

BatchResult solveBatch(AsyncScheduler& scheduler,
                       const std::vector<service::Request>& requests) {
  const Clock::time_point start = Clock::now();
  BatchResult batch;
  batch.outcomes.resize(requests.size());
  batch.stats.requests = requests.size();

  // Group identical requests in input order, so each canonical key is solved
  // once whatever the timing. No trace span here: the worker's own identity
  // walk stays the one fingerprint stage of each outcome's trace.
  std::unordered_map<std::string, std::size_t> groupOfKey;
  std::vector<std::vector<std::size_t>> groups;  // input slots; front() is solved
  std::vector<service::Request> unique;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto [it, inserted] =
        groupOfKey.try_emplace(service::requestIdentity(requests[i]).key, groups.size());
    if (inserted) {
      groups.emplace_back();
      unique.push_back(requests[i]);
    }
    groups[it->second].push_back(i);
  }

  VectorSource source(std::move(unique));
  GroupSink sink(groups, batch);
  (void)runStream(source, sink, scheduler);

  batch.stats.wallSeconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (batch.stats.wallSeconds > 0) {
    batch.stats.requestsPerSecond =
        static_cast<double>(batch.stats.requests) / batch.stats.wallSeconds;
  }
  return batch;
}

}  // namespace pipesched::stream
