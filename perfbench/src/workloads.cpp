#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "pipesched/io/format.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/workload/generator.hpp"
#include "pipesched/workload/rng.hpp"

namespace perfbench {

namespace {

using pipesched::workload::ExperimentKind;
using pipesched::workload::Rng;

struct Shape {
  ExperimentKind kind;
  std::size_t stages;
  std::size_t processors;
};

constexpr ExperimentKind kE1 = ExperimentKind::kE1BalancedHomComm;
constexpr ExperimentKind kE2 = ExperimentKind::kE2BalancedHetComm;
constexpr ExperimentKind kE3 = ExperimentKind::kE3LargeComputations;
constexpr ExperimentKind kE4 = ExperimentKind::kE4SmallComputations;

/// The twelve (kind, n, p) panels of the paper's Figures 2-7, in the order
/// bench/fig_sweeps.cpp pairs them. None is small enough for the exact
/// enumerator (n * p > 48).
constexpr Shape kPaperPanels[] = {
    {kE1, 10, 10}, {kE1, 40, 10},  {kE2, 10, 10},  {kE2, 40, 10},
    {kE3, 5, 10},  {kE3, 20, 10},  {kE4, 5, 10},   {kE4, 20, 10},
    {kE1, 40, 100}, {kE2, 40, 100}, {kE3, 10, 100}, {kE4, 40, 100},
};

/// Small instances (n * p <= 48, p <= 6): the exact enumerator joins the race.
constexpr Shape kSmallShapes[] = {
    {kE1, 8, 6}, {kE2, 12, 4}, {kE3, 6, 6}, {kE4, 16, 3}, {kE2, 8, 5}, {kE1, 10, 4},
};

/// The p = 10 paper panels: sweep_refine's instances.
constexpr Shape kSweepShapes[] = {
    {kE1, 10, 10}, {kE1, 40, 10}, {kE2, 10, 10}, {kE2, 40, 10},
    {kE3, 5, 10},  {kE3, 20, 10}, {kE4, 5, 10},  {kE4, 20, 10},
};

constexpr std::size_t kSweepPoints[] = {12, 23, 45};

/// The priming batch is the same on every run, whatever the workload seed,
/// so set-up does the same work each time. Child-stream offsets keep it
/// disjoint from the timed instances, so warm-up never pre-solves a timed
/// request.
constexpr std::uint64_t kPrimeSeed = 0x5e7u;
constexpr std::uint64_t kTimedStream = 0;
constexpr std::uint64_t kPrimeStream = 1ull << 40;
constexpr std::uint64_t kOrderStream = 1ull << 41;

constexpr std::size_t kMinTimed = 1000;   ///< p99 needs 10 samples beyond it
// Closed-loop rates on a 4-core host, used only to size the fixed counts.
constexpr double kColdNominalRate = 40;
constexpr double kSweepNominalRate = 110;
constexpr std::size_t kSweepWindow = 6;
constexpr double kRetryProbability = 0.11;  ///< ~10% of all sends are retries

std::string renderLine(const pipesched::core::Pipeline& pipeline,
                       const pipesched::core::Platform& platform, std::size_t points) {
  std::ostringstream text;
  pipesched::io::writeInstance(text, pipesched::io::Instance{pipeline, platform, {}});
  std::ostringstream line;
  pipesched::io::JsonWriter w(line, /*pretty=*/false);
  w.beginObject();
  w.kv("text", text.str());
  if (points != 0) w.kv("points", points);
  w.endObject();
  return line.str();
}

std::string shapeLine(const Shape& shape, Rng rng, std::size_t points = 0) {
  const auto pair =
      pipesched::workload::randomInstance(shape.kind, shape.stages, shape.processors, rng);
  return renderLine(pair.pipeline, pair.platform, points);
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(i - 1)));
    std::swap(items[i - 1], items[j]);
  }
}

std::uint32_t addLine(WorkloadStream& stream, std::string line, std::uint32_t instance) {
  stream.lines.push_back(std::move(line));
  stream.instanceOf.push_back(instance);
  return static_cast<std::uint32_t>(stream.lines.size() - 1);
}

/// Instance i of the cold mix: every sixth is small, the rest cycle the
/// twelve paper panels.
Shape coldShape(std::size_t i) {
  if (i % 6 == 5) return kSmallShapes[(i / 6) % std::size(kSmallShapes)];
  return kPaperPanels[(i - i / 6) % std::size(kPaperPanels)];
}

void buildColdPaper(WorkloadStream& s, const Rng& base, const Rng& prime,
                    std::size_t count) {
  constexpr std::size_t kPrimeCount = 18;
  for (std::size_t j = 0; j < kPrimeCount; ++j) {
    const auto key = addLine(s, shapeLine(coldShape(j), prime.fork(kPrimeStream + j)),
                             static_cast<std::uint32_t>(s.lines.size()));
    s.prime.push_back(Send{key});
  }
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  Rng orderRng = base.fork(kOrderStream);
  shuffle(order, orderRng);
  for (const std::size_t i : order) {
    const auto key = addLine(s, shapeLine(coldShape(i), base.fork(kTimedStream + i)),
                             static_cast<std::uint32_t>(s.lines.size()));
    s.timed.push_back(Send{key});
  }
}

/// Appends `count` sends of a sliding window of live instances, each asked
/// at 12, 23 and 45 sweep points in turn. A retry repeats a send at once,
/// so it reaches the server while the first copy is still being solved.
void emitSweepWindow(WorkloadStream& s, const Rng& base, std::uint64_t streamBase,
                     std::uint32_t instanceBase, std::size_t count, double retryProbability,
                     std::vector<Send>& out) {
  struct Live {
    std::uint32_t instance = 0;
    Rng rng{0};
    Shape shape{};
    std::size_t stage = 0;
  };
  std::uint64_t nextInstance = 0;
  const auto fresh = [&] {
    Live live;
    live.instance = instanceBase + static_cast<std::uint32_t>(nextInstance);
    live.rng = base.fork(streamBase + nextInstance);
    live.shape = kSweepShapes[nextInstance % std::size(kSweepShapes)];
    ++nextInstance;
    return live;
  };
  std::vector<Live> window;
  for (std::size_t i = 0; i < kSweepWindow; ++i) window.push_back(fresh());
  Rng pick = base.fork(kOrderStream + streamBase);
  while (out.size() < count) {
    const auto slot = static_cast<std::size_t>(
        pick.uniformInt(0, static_cast<std::int64_t>(kSweepWindow - 1)));
    Live& live = window[slot];
    // The instance is regenerated from its own stream at every stage, so
    // all three lines carry byte-identical instance text.
    const auto key = addLine(
        s, shapeLine(live.shape, live.rng, kSweepPoints[live.stage]), live.instance);
    out.push_back(Send{key});
    if (out.size() < count && pick.nextReal() < retryProbability) {
      out.push_back(Send{key, true});
    }
    if (++live.stage == std::size(kSweepPoints)) live = fresh();
  }
}

void buildSweepRefine(WorkloadStream& s, const Rng& base, const Rng& prime,
                      std::size_t count) {
  s.connections = 4;
  emitSweepWindow(s, prime, kPrimeStream, 1u << 30, 18, 0.0, s.prime);
  emitSweepWindow(s, base, kTimedStream, 0, count, kRetryProbability, s.timed);
}

}  // namespace

const char* workloadName(Workload workload) {
  switch (workload) {
    case Workload::kColdPaper:
      return "cold_paper";
    case Workload::kSweepRefine:
      return "sweep_refine";
  }
  return "?";
}

std::optional<Workload> workloadFromName(const std::string& name) {
  for (const Workload w : {Workload::kColdPaper, Workload::kSweepRefine}) {
    if (name == workloadName(w)) return w;
  }
  return std::nullopt;
}

std::size_t timedCount(Workload workload, double seconds) {
  const auto scaled = [seconds](double rate) {
    return static_cast<std::size_t>(std::ceil(seconds * rate));
  };
  switch (workload) {
    case Workload::kColdPaper:
      return std::max(kMinTimed, scaled(kColdNominalRate));
    case Workload::kSweepRefine:
      // Retries are served from the cache or coalesced, so the count leaves
      // room for them above the 1000 fresh solves a portfolio p99 needs.
      return std::max(static_cast<std::size_t>(kMinTimed * (1 + kRetryProbability) + 10),
                      scaled(kSweepNominalRate));
  }
  return kMinTimed;
}

WorkloadStream makeStream(Workload workload, std::uint64_t seed, double seconds) {
  WorkloadStream stream;
  const Rng base(seed);
  const Rng prime(kPrimeSeed);
  const std::size_t count = timedCount(workload, seconds);
  switch (workload) {
    case Workload::kColdPaper:
      buildColdPaper(stream, base, prime, count);
      break;
    case Workload::kSweepRefine:
      buildSweepRefine(stream, base, prime, count);
      break;
  }
  return stream;
}

std::string serializeStream(const WorkloadStream& stream) {
  std::string out;
  const auto append = [&](const char* phase, const std::vector<Send>& sends) {
    for (const Send& send : sends) {
      out += phase;
      out += send.retry ? " retry " : " ";
      out += stream.lines[send.key];
      out += '\n';
    }
  };
  append("prime", stream.prime);
  append("timed", stream.timed);
  return out;
}

}  // namespace perfbench
