// The streaming pump: Source -> AsyncScheduler -> Sink, with bounded memory
// and ordered incremental emission.
//
// runStream() pulls requests lazily from the source, submits them to the
// scheduler (blocking on channel backpressure), and emits each outcome to
// the sink in input order as soon as its turn completes. A bounded reorder
// window (queue capacity + workers) caps how much the pump holds:
//
//     live requests  <=  window (queueCapacity + max(workers, 1)) + 1
//
// counted from Source::next() to Sink::emit() — the property the
// memory-bound test instruments. The window also prevents head-of-line
// completions from accumulating unboundedly when one slow request stalls
// the emission order.
//
// solveBatch() is the batch shape of the same pump: it groups identical
// requests, runs the unique ones through runStream(), and hands back every
// outcome in input order with the batch's accounting.
//
// The scheduler is passed in (not owned) so its result cache survives across
// passes — `pipesched batch --repeat N` (with or without --stream) turns
// passes 2..N into pure cache traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/stream/sink.hpp"
#include "pipesched/stream/source.hpp"

namespace pipesched::stream {

/// Accounting of one runStream() pass. `stream` is the scheduler's counter
/// snapshot at the end of the pass — cumulative when the scheduler is shared
/// across passes.
struct EngineStats {
  std::size_t requests = 0;  ///< emitted to the sink (== stream length)
  std::size_t failed = 0;    ///< emitted outcomes with ok == false
  double wallSeconds = 0;
  double requestsPerSecond = 0;
  StreamStats stream;
};

/// Pumps the source dry. Exceptions from the source or the sink abort the
/// pass *after* draining everything already submitted (no request is left
/// dangling), then propagate. Solver failures do not throw — they arrive at
/// the sink as outcomes with ok == false.
EngineStats runStream(Source& source, Sink& sink, AsyncScheduler& scheduler);

/// Per-member contribution totals over the fresh solves of one batch (cache
/// hits and dedupe copies excluded — they repeat a prior solve's numbers).
/// Rows appear in first-seen member order, which is deterministic: outcomes
/// are folded in input order and members race in fixed catalog order.
struct MemberBatchStats {
  std::string solver;         ///< SolverContribution::solver
  std::uint64_t runs = 0;     ///< fresh solves this member took part in
  std::uint64_t points = 0;   ///< feasible points produced before merging
  std::uint64_t novel = 0;    ///< points that joined the member's own front
  std::uint64_t merged = 0;   ///< merged-front points credited to the member
  std::uint64_t skipped = 0;  ///< work units skipped by budget-aware dropping
  std::uint64_t dropped = 0;  ///< runs on which the drop policy fired
  std::uint64_t reused = 0;   ///< whole units served from the sub-result cache
  std::uint64_t seeded = 0;   ///< units warm-started from cached seed payloads

  /// Folds one solve's contribution into this row (counts one run).
  void add(const service::SolverContribution& c);

  /// Folds another row for the same member into this one.
  void merge(const MemberBatchStats& other);
};

/// Aggregate accounting of one solveBatch() call. Every request slot lands
/// in exactly one of the four buckets below, so
/// solved + cacheHits + deduped + failed == requests.
struct BatchStats {
  std::size_t requests = 0;
  std::size_t solved = 0;      ///< portfolio ran and succeeded (unique misses)
  std::size_t failed = 0;      ///< outcomes with ok == false (duplicates included)
  std::size_t cacheHits = 0;   ///< served straight from the cache
  std::size_t deduped = 0;     ///< shared an identical in-batch request's ok solve
  double wallSeconds = 0;
  double requestsPerSecond = 0;
  /// Cross-request work sharing over the fresh solves: sub-result cache hits
  /// (whole units + warm-start seeds) and the whole-unit subset. How much is
  /// shared depends on cache state and, under several workers, timing — the
  /// *results* never do.
  std::uint64_t subHits = 0;
  std::uint64_t subUnitsReused = 0;
  std::vector<MemberBatchStats> members;  ///< per-member totals (fresh solves)

  /// Counts one fresh solve: `solved`, the sub-result hits and the member
  /// rows (first-seen order).
  void addSolve(const std::vector<service::SolverContribution>& solvers);

  /// Folds another batch's totals into this one (`--repeat` passes) and
  /// recomputes requestsPerSecond over the summed wall time.
  void merge(const BatchStats& other);
};

struct BatchResult {
  std::vector<service::RequestOutcome> outcomes;  ///< same order as the input requests
  BatchStats stats;
};

/// Solves a batch through the scheduler and returns the outcomes in input
/// order. Identical requests (same canonical key) are grouped first, in
/// input order: each group's first slot is solved once through runStream(),
/// the other slots get a copy flagged `deduped`. The grouping makes in-batch
/// dedupe deterministic, whatever the worker count; every outcome is
/// byte-identical under describeOutcome() to a per-request serial
/// SchedulingService::solve.
[[nodiscard]] BatchResult solveBatch(AsyncScheduler& scheduler,
                                     const std::vector<service::Request>& requests);

}  // namespace pipesched::stream
