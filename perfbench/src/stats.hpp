// The benchmark's own statistics: percentile selection, per-request timing
// of the load generator, and the server-process readings taken from /proc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// Minimum samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (q in (0, 1]) of `samples`. Refuses — returns
/// nullopt — when fewer than kMinSamplesBeyond samples lie beyond the
/// selected rank: a p99 needs at least 1000 samples.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample (mean of the two middle values when even).
[[nodiscard]] double median(std::vector<double> samples);

/// Timing of one request as the closed-loop generator sees it, from three
/// readings of one monotonic clock (seconds): when its connection became
/// free, when the generator started writing it, when the last answer byte
/// was read.
struct RequestTiming {
  double latency = 0;   ///< what the client observes: dispatch to answer
  double lateness = 0;  ///< the generator's own turnaround: free to dispatch
};

[[nodiscard]] RequestTiming requestTiming(double connFree, double dispatch, double complete);

/// utime + stime of a process, in clock ticks (/proc/<pid>/stat fields 14
/// and 15 — every thread, live or exited).
[[nodiscard]] std::optional<std::uint64_t> parseProcStatCpuTicks(const std::string& stat);
[[nodiscard]] std::optional<std::uint64_t> processCpuTicks(pid_t pid);

/// CPU milliseconds a process spent between two readings taken at the
/// edges of the timed window; work before the first reading is excluded.
[[nodiscard]] double cpuMsInWindow(std::uint64_t ticksAtStart, std::uint64_t ticksAtEnd);

/// Host-wide CPU ticks from /proc/stat: all of them, and the share the
/// hypervisor stole. Taken around the timed window, the steal share says
/// how contended the host was while the run measured.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] std::optional<HostTicks> hostTicks();
[[nodiscard]] double stealPercent(const HostTicks& start, const HostTicks& end);

/// Peak resident set (VmHWM) of a process in MiB.
[[nodiscard]] std::optional<double> processPeakRssMb(pid_t pid);

}  // namespace perfbench
