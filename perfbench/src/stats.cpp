#include "stats.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0 || q > 1) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  if (n - (index + 1) < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

RequestTiming requestTiming(double connFree, double dispatch, double complete) {
  RequestTiming t;
  t.latency = complete - dispatch;
  t.lateness = std::max(0.0, dispatch - connFree);
  return t;
}

std::optional<std::uint64_t> parseProcStatCpuTicks(const std::string& stat) {
  // The command name (field 2) is parenthesised and may hold spaces or
  // parentheses itself: fields resume after the *last* ')'.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  std::uint64_t utime = 0;
  std::uint64_t stime = 0;
  // Field 3 (state) is the first token after ')'; utime is field 14.
  for (int index = 3; index <= 15; ++index) {
    if (!(fields >> field)) return std::nullopt;
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  return utime + stime;
}

std::optional<std::uint64_t> processCpuTicks(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return std::nullopt;
  return parseProcStatCpuTicks(stat);
}

double cpuMsInWindow(std::uint64_t ticksAtStart, std::uint64_t ticksAtEnd) {
  const double ticksPerSecond = static_cast<double>(::sysconf(_SC_CLK_TCK));
  const std::uint64_t delta = ticksAtEnd >= ticksAtStart ? ticksAtEnd - ticksAtStart : 0;
  return 1000.0 * static_cast<double>(delta) / ticksPerSecond;
}

std::optional<HostTicks> hostTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return std::nullopt;
  HostTicks ticks;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal guest guest_nice
  for (int field = 1; field <= 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 8) ticks.steal = value;
  }
  return ticks;
}

double stealPercent(const HostTicks& start, const HostTicks& end) {
  const double total = static_cast<double>(end.total - start.total);
  return total > 0 ? 100.0 * static_cast<double>(end.steal - start.steal) / total : 0.0;
}

std::optional<double> processPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      if (fields >> kb) return kb / 1024.0;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
