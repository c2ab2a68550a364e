#include "pipesched/stream/async_scheduler.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "pipesched/fault/fault.hpp"
#include "pipesched/obs/metrics.hpp"
#include "pipesched/service/fingerprint.hpp"

namespace pipesched::stream {

namespace {

/// The flagged timeout every expiry path hands to finish(): never a hang,
/// never a silent drop — ok == false, timedOut == true, explanatory error.
service::RequestOutcome timeoutOutcome(const service::Fingerprint& fp, const char* where) {
  service::RequestOutcome outcome;
  outcome.ok = false;
  outcome.timedOut = true;
  outcome.error = std::string("deadline exceeded ") + where;
  outcome.fingerprint = fp;
  return outcome;
}

}  // namespace

std::size_t defaultWorkerCount() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

AsyncScheduler::AsyncScheduler(StreamConfig config)
    : config_(std::move(config)),
      service_(config_.service),
      channel_(config_.queueCapacity) {
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

AsyncScheduler::~AsyncScheduler() { close(); }

service::RequestOutcome AsyncScheduler::solveOne(const Job& job, obs::RequestTrace* trace) {
  // Never let an exception escape into a worker: a throwing solve (or
  // override) becomes a failed outcome of this request only.
  service::RequestOutcome outcome;
  try {
    if (config_.solveOverride) {
      const obs::TraceClock::time_point start =
          trace != nullptr ? obs::TraceClock::now() : obs::TraceClock::time_point{};
      outcome = config_.solveOverride(job.request);
      if (trace != nullptr) trace->totalSeconds += obs::secondsSince(start);
    } else {
      // The three-arg overload folds its wall time into the trace and
      // attaches it to the outcome.
      outcome = service_.solve(job.request, job.identity, trace);
    }
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  } catch (...) {
    outcome.ok = false;
    outcome.error = "unknown exception while solving";
  }
  if (trace != nullptr && outcome.trace == nullptr) {
    // Override and exception paths: the service never consumed the trace.
    outcome.trace = std::make_shared<const obs::RequestTrace>(std::move(*trace));
  }
  outcome.fingerprint = job.identity.fp;  // overrides/failures included
  return outcome;
}

void AsyncScheduler::finish(Job& job, service::RequestOutcome outcome, bool coalescedCopy) {
  // Callback first (it observes the outcome by reference), then the promise,
  // then the counters — drain()/future waiters must only unblock once the
  // user-visible completion has fully happened.
  if (job.callback) {
    try {
      job.callback(job.request, outcome);
    } catch (...) {
      std::lock_guard lock(mutex_);
      ++stats_.callbackExceptions;
    }
  }
  const bool ok = outcome.ok;
  const bool fromCache = outcome.fromCache;
  job.promise.set_value(std::move(outcome));
  {
    std::lock_guard lock(mutex_);
    ++stats_.completed;
    if (!ok) ++stats_.failed;
    else if (coalescedCopy) ++stats_.coalesced;
    else if (fromCache) ++stats_.cacheHits;
    else ++stats_.solved;
  }
  if (coalescedCopy && obs::metricsEnabled()) {
    static obs::Counter& coalesced = obs::registry().counter(obs::names::kCoalesced);
    coalesced.add();
  }
  allDone_.notify_all();
}

void AsyncScheduler::workerLoop() {
  while (std::optional<Job> popped = channel_.pop()) {
    Job job = std::move(*popped);
    // Observability prologue: queue wait (submit -> this pop) and a sample
    // of the post-pop queue depth. `job.timed` gates the clock read, the
    // metrics flag gates the registry — both off costs two branches.
    double queueWait = 0;
    if (job.timed) queueWait = obs::secondsSince(job.enqueuedAt);
    if (obs::metricsEnabled()) {
      if (job.timed) obs::stageHistogram(obs::Stage::kQueueWait).recordSeconds(queueWait);
      static obs::Histogram& depth =
          obs::registry().histogram(obs::names::kQueueDepth, obs::Unit::kCount);
      depth.record(channel_.size());
    }
    std::optional<obs::RequestTrace> trace;
    if (obs::tracingEnabled()) {
      trace.emplace();
      trace->totalSeconds = job.request.parseSeconds + queueWait;
      if (job.request.parseSeconds > 0) {
        trace->add(obs::Stage::kParse, job.request.parseSeconds);
      }
      if (job.timed) trace->add(obs::Stage::kQueueWait, queueWait);
    }
    // Canonicalize on the worker, not in submit(): a single producer thread
    // (the engine pump, a serve loop) must not serialize the per-request
    // walk that N workers could do in parallel.
    obs::TraceSpan fingerprintSpan(obs::Stage::kFingerprint, trace ? &*trace : nullptr);
    job.identity = service::requestIdentity(job.request);
    const double fingerprintSeconds = fingerprintSpan.stop();
    if (trace) trace->totalSeconds += fingerprintSeconds;
    // A request that expired while queued is answered with a flagged timeout
    // and never solved: under saturation, burning a worker on a result
    // nobody can use anymore only pushes every later deadline over too.
    if (job.request.deadline.expired()) {
      service::RequestOutcome outcome =
          timeoutOutcome(job.identity.fp, "while queued");
      if (trace) {
        outcome.trace = std::make_shared<const obs::RequestTrace>(std::move(*trace));
      }
      if (obs::metricsEnabled()) {
        obs::registry().counter(obs::names::kTimeoutQueueExpired).add();
      }
      finish(job, std::move(outcome), /*coalescedCopy=*/false);
      continue;
    }
    bool ownsKey = false;
    {
      std::lock_guard lock(mutex_);
      const auto it = inflight_.find(job.identity.key);
      if (it == inflight_.end()) {
        inflight_.emplace(job.identity.key, std::vector<Job>{});
        ownsKey = true;
      } else if (it->second.size() < config_.maxCoalescedWaiters) {
        // An identical request is being solved right now: park this one on
        // it and go pop the next — its solver fulfills us when done.
        it->second.push_back(std::move(job));
        ++stats_.waitersAttached;
        continue;
      } else {
        // Waiter list at its cap: parked jobs escape the channel's capacity
        // accounting, so instead of buffering this duplicate we solve it
        // ourselves. The outcome is identical (deterministic portfolio);
        // memory stays bounded and backpressure reasserts once every
        // worker is busy.
        ++stats_.coalesceOverflow;
      }
    }
    service::RequestOutcome outcome = solveOne(job, trace ? &*trace : nullptr);
    std::vector<Job> waiters;
    if (ownsKey) {
      std::lock_guard lock(mutex_);
      const auto it = inflight_.find(job.identity.key);
      waiters = std::move(it->second);
      inflight_.erase(it);
    }
    for (Job& waiter : waiters) {
      // A waiter whose own deadline passed while the owner solved gets a
      // flagged timeout, not a result delivered past its deadline.
      if (waiter.request.deadline.expired()) {
        service::RequestOutcome expiredCopy =
            timeoutOutcome(job.identity.fp, "while coalesced on an in-flight solve");
        expiredCopy.trace = outcome.trace;
        if (obs::metricsEnabled()) {
          obs::registry().counter(obs::names::kTimeoutCoalescedExpired).add();
        }
        finish(waiter, std::move(expiredCopy), /*coalescedCopy=*/true);
        continue;
      }
      service::RequestOutcome copy = outcome;
      copy.deduped = true;
      copy.fromCache = false;
      finish(waiter, std::move(copy), /*coalescedCopy=*/true);
    }
    finish(job, std::move(outcome), /*coalescedCopy=*/false);
  }
}

void AsyncScheduler::runInline(Job job) {
  std::optional<obs::RequestTrace> trace;
  if (obs::tracingEnabled()) {
    trace.emplace();
    trace->totalSeconds = job.request.parseSeconds;  // no queue in inline mode
    if (job.request.parseSeconds > 0) {
      trace->add(obs::Stage::kParse, job.request.parseSeconds);
    }
  }
  obs::TraceSpan fingerprintSpan(obs::Stage::kFingerprint, trace ? &*trace : nullptr);
  job.identity = service::requestIdentity(job.request);
  const double fingerprintSeconds = fingerprintSpan.stop();
  if (trace) trace->totalSeconds += fingerprintSeconds;
  if (job.request.deadline.expired()) {
    // Inline mode has no queue, but a caller can still hand over an already
    // expired deadline — same contract as the worker path.
    service::RequestOutcome outcome = timeoutOutcome(job.identity.fp, "before solving");
    if (trace) {
      outcome.trace = std::make_shared<const obs::RequestTrace>(std::move(*trace));
    }
    if (obs::metricsEnabled()) {
      obs::registry().counter(obs::names::kTimeoutQueueExpired).add();
    }
    finish(job, std::move(outcome), /*coalescedCopy=*/false);
    return;
  }
  finish(job, solveOne(job, trace ? &*trace : nullptr), /*coalescedCopy=*/false);
}

std::future<service::RequestOutcome> AsyncScheduler::submitJob(Job job) {
  if (fault::injected(fault::sites::kSchedSubmit)) {
    throw ModelError("fault injected: sched.submit");
  }
  std::future<service::RequestOutcome> future = job.promise.get_future();
  if (obs::metricsEnabled() || obs::tracingEnabled()) {
    job.enqueuedAt = obs::TraceClock::now();
    job.timed = true;
  }
  {
    std::lock_guard lock(mutex_);
    if (!accepting_) throw ModelError("AsyncScheduler: submit after close");
    ++stats_.submitted;
    stats_.maxInFlight =
        std::max<std::size_t>(stats_.maxInFlight, stats_.submitted - stats_.completed);
  }
  if (workers_.empty()) {
    runInline(std::move(job));
    return future;
  }
  if (!channel_.push(std::move(job))) {
    // close() raced us between the accepting_ check and the push. Roll the
    // admission back and re-wake drain() waiters: the rollback may have just
    // made completed == submitted true without any finish() left to signal it.
    {
      std::lock_guard lock(mutex_);
      --stats_.submitted;
    }
    allDone_.notify_all();
    throw ModelError("AsyncScheduler: closed while submitting");
  }
  return future;
}

std::future<service::RequestOutcome> AsyncScheduler::submit(service::Request request) {
  return submitJob(Job{std::move(request)});
}

void AsyncScheduler::submit(service::Request request, Callback callback) {
  Job job{std::move(request)};
  job.callback = std::move(callback);
  (void)submitJob(std::move(job));  // completion is reported via the callback
}

bool AsyncScheduler::trySubmit(service::Request request, Callback callback) {
  // An armed `sched.submit` fault presents as admission refusal — callers
  // already handle the queue-full shed path, so injection exercises it.
  if (fault::injected(fault::sites::kSchedSubmit)) return false;
  Job job{std::move(request)};
  job.callback = std::move(callback);
  if (obs::metricsEnabled() || obs::tracingEnabled()) {
    job.enqueuedAt = obs::TraceClock::now();
    job.timed = true;
  }
  {
    std::lock_guard lock(mutex_);
    if (!accepting_) return false;
    ++stats_.submitted;
    stats_.maxInFlight =
        std::max<std::size_t>(stats_.maxInFlight, stats_.submitted - stats_.completed);
  }
  if (workers_.empty()) {
    runInline(std::move(job));
    return true;
  }
  if (!channel_.tryPush(job)) {
    // Full (or closed mid-flight): roll the admission back, exactly like the
    // blocking path's close race, and re-wake drain() waiters in case the
    // rollback just made completed == submitted.
    {
      std::lock_guard lock(mutex_);
      --stats_.submitted;
    }
    allDone_.notify_all();
    return false;
  }
  return true;
}

void AsyncScheduler::drain() {
  std::unique_lock lock(mutex_);
  allDone_.wait(lock, [&] { return stats_.completed == stats_.submitted; });
}

void AsyncScheduler::close() {
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
  }
  channel_.close();  // workers drain what was accepted, then exit
  // Serialize the join: a second close() (or the destructor after a user
  // close) blocks here until the first finishes, so "close returned" always
  // means "workers are gone".
  std::lock_guard joinLock(joinMutex_);
  if (joined_) return;
  for (std::thread& worker : workers_) worker.join();
  joined_ = true;
}

StreamStats AsyncScheduler::stats() const {
  StreamStats snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot = stats_;
  }
  snapshot.queue = channel_.stats();
  return snapshot;
}

SchedulerSnapshot AsyncScheduler::snapshot() const {
  SchedulerSnapshot snap;
  {
    // One critical section for every scheduler-owned counter: inFlight and
    // the parked-waiter tallies are derived while nothing can move.
    std::lock_guard lock(mutex_);
    snap.stream = stats_;
    snap.inFlight = stats_.submitted - stats_.completed;
    snap.inflightKeys = inflight_.size();
    for (const auto& [key, waiters] : inflight_) snap.parkedWaiters += waiters.size();
  }
  // The channel has its own lock; its size is instantaneously consistent but
  // not atomic with the block above, so clamp to the documented invariant.
  snap.queueCapacity = config_.queueCapacity;
  snap.queueDepth = std::min(channel_.size(), snap.queueCapacity);
  snap.stream.queue = channel_.stats();
  return snap;
}

}  // namespace pipesched::stream
