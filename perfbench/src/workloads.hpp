// Deterministic request streams for the serving benchmark.
//
// A stream is a pure function of (workload, seed, seconds): the timed
// instance texts, the sweep resolutions, the send order and the retry
// duplicates all come from one workload::Rng seeded with the workload seed.
// The priming batch comes from a fixed seed, the same on every run. The
// server only ever sees the rendered JSONL lines ({"text":
// "pipesched-instance v1 ..."}, plus "points" where the workload refines a
// sweep) — it never generates an instance itself.
//
// Distinct request lines are stored once in `lines`; the prime (set-up) and
// timed phases reference them by key, so a retry costs no second copy of
// its instance text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kColdPaper, kSweepRefine };

[[nodiscard]] const char* workloadName(Workload workload);
[[nodiscard]] std::optional<Workload> workloadFromName(const std::string& name);

/// One request the generator sends.
struct Send {
  std::uint32_t key = 0;  ///< index into WorkloadStream::lines
  bool retry = false;     ///< immediate duplicate of the previous send
};

/// Every workload is a closed loop: each connection sends its next request
/// as soon as the previous answer arrived.
struct WorkloadStream {
  std::size_t connections = 2;
  std::vector<std::string> lines;  ///< distinct JSONL request lines, no newline
  /// Instance each line belongs to: lines sharing an instance differ only in
  /// their sweep (sweep_refine), so a replay that keeps them together reuses
  /// sub-results the way the server does.
  std::vector<std::uint32_t> instanceOf;
  std::vector<Send> prime;  ///< set-up phase, closed loop, untimed
  std::vector<Send> timed;  ///< measured phase
};

/// Requests in the timed phase. A fixed count per run, so every run of a
/// workload does the same amount of work; sized so the phase lasts about
/// `seconds` on a 4-core host, and never below the 1000 samples a p99 needs.
[[nodiscard]] std::size_t timedCount(Workload workload, double seconds);

[[nodiscard]] WorkloadStream makeStream(Workload workload, std::uint64_t seed, double seconds);

/// Byte rendering of everything the stream would send, in order (lines and
/// retry flags) — what the determinism test compares.
[[nodiscard]] std::string serializeStream(const WorkloadStream& stream);

}  // namespace perfbench
