#include "pipesched/service/portfolio.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "pipesched/c2c/heterogeneous.hpp"
#include "pipesched/core/pareto.hpp"
#include "pipesched/exact/exhaustive.hpp"
#include "pipesched/exp/pareto_study.hpp"
#include "pipesched/fault/fault.hpp"
#include "pipesched/heuristics/annealing.hpp"
#include "pipesched/heuristics/local_search.hpp"
#include "pipesched/heuristics/registry.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/service/fingerprint.hpp"

namespace pipesched::service {

namespace {

using Clock = std::chrono::steady_clock;

struct Slot {
  std::vector<core::ParetoPoint> points;
  SolverContribution contribution;
  /// The wall-clock deadline (request deadline or timeBudgetMs) cut this
  /// member short or dropped it before it started — the run is degraded.
  bool deadlineCut = false;
};

/// Share identity of a sweeping member's unit at threshold `t`: the member
/// tag plus the exact hexfloat rendering, so distinct doubles never collide
/// and equal thresholds from different sweep grids always meet.
std::string sweepUnitKey(const std::string& memberTag, Real t) {
  return memberTag + '@' + renderRealHex(t);
}

/// The grid anchor every sweep of this (instance, heuristic) pair recomputes:
/// the failure threshold (a full run-to-exhaustion heuristic run) for the
/// period family, the Lemma-1 latency optimum otherwise. Sweep-independent,
/// hence memoized under the instance identity when sharing is on.
Real gridAnchor(const core::Evaluator& eval, const heuristics::MappingHeuristic& h,
                const SubShare* share, std::size_t& seeded) {
  const std::string key = "grid:H" + std::to_string(static_cast<int>(h.id()) + 1);
  if (share != nullptr) {
    if (const std::optional<SubResult> memo = share->load(key); memo && memo->scalar) {
      ++seeded;
      return *memo->scalar;
    }
  }
  const Real lo = h.objective() == heuristics::Objective::kMinLatencyForPeriod
                      ? h.failureThreshold(eval)
                      : eval.optimalLatency();
  if (share != nullptr) {
    SubResult memo;
    memo.scalar = lo;
    share->store(key, memo);
  }
  return lo;
}

/// The grid every threshold-sweeping member shares: from the base
/// heuristic's failure threshold (resp. the latency optimum) up to that
/// value times sweep.range — the same formula as exp::runParetoStudy.
struct Grid {
  Real lo = 0;
  Real hi = 0;

  Grid(const core::Evaluator& eval, const heuristics::MappingHeuristic& h, Real range,
       const SubShare* share, std::size_t& seeded) {
    lo = gridAnchor(eval, h, share, seeded);
    hi = lo * range;
  }
};

core::ParetoPoint makePoint(const core::Metrics& metrics, core::IntervalMapping mapping) {
  core::ParetoPoint p;
  p.period = metrics.period;
  p.latency = metrics.latency;
  p.mapping = std::move(mapping);
  return p;
}

// ---------------------------------------------------------------------------
// H1..H6: one registry heuristic swept over the threshold grid (the
// pre-registry portfolio behavior, byte for byte).

class HeuristicMember final : public PortfolioMember {
 public:
  explicit HeuristicMember(heuristics::HeuristicId id) : hid_(id) {}

  [[nodiscard]] std::string id() const override {
    return "H" + std::to_string(static_cast<int>(hid_) + 1);
  }
  [[nodiscard]] std::string solverName() const override {
    return heuristics::makeHeuristic(hid_)->name();
  }
  [[nodiscard]] bool accepts(const core::Evaluator&, const PortfolioConfig&) const override {
    return true;
  }

  class SweepRun final : public Run {
   public:
    SweepRun(std::unique_ptr<heuristics::MappingHeuristic> h, const core::Evaluator& eval,
             const SweepSpec& sweep, const SubShare* share)
        : h_(std::move(h)),
          eval_(eval),
          sweep_(sweep),
          grid_(eval, *h_, sweep.range, share, seeded_) {}

    [[nodiscard]] std::size_t units() const override { return sweep_.points; }

    [[nodiscard]] std::string unitKey(std::size_t i) const override {
      return sweepUnitKey("H" + std::to_string(static_cast<int>(h_->id()) + 1),
                          exp::sweepThreshold(grid_.lo, grid_.hi, sweep_.points, i));
    }

    [[nodiscard]] std::vector<core::ParetoPoint> unit(std::size_t i) override {
      const Real t = exp::sweepThreshold(grid_.lo, grid_.hi, sweep_.points, i);
      last_ = h_->run(eval_, t);
      if (!last_->success) return {};
      std::vector<core::ParetoPoint> out;
      out.push_back(makePoint(last_->metrics, last_->mapping));
      return out;
    }

    void attachSeed(std::size_t, SubResult& memo) override {
      // The raw result is the refiners' warm-start seed — published even on
      // failure (the annealing refiner anneals from infeasible seeds too).
      if (last_) memo.seed = *last_;
    }

    [[nodiscard]] std::size_t seeded() const override { return seeded_; }

   private:
    std::unique_ptr<heuristics::MappingHeuristic> h_;
    const core::Evaluator& eval_;
    SweepSpec sweep_;
    std::size_t seeded_ = 0;
    Grid grid_;
    std::optional<heuristics::Result> last_;
  };

  [[nodiscard]] std::unique_ptr<Run> start(const core::Evaluator& eval, const SweepSpec& sweep,
                                           const PortfolioConfig&,
                                           const SubShare* share) const override {
    return std::make_unique<SweepRun>(heuristics::makeHeuristic(hid_), eval, sweep, share);
  }

 private:
  heuristics::HeuristicId hid_;
};

// ---------------------------------------------------------------------------
// ls:HN / sa:HN: refiners — at each grid point, run the base heuristic, then
// polish its mapping under the same threshold. Local search accepts only
// lexicographically better neighbors and annealing returns the best feasible
// state seen starting from the seed, so a refined point is never dominated
// by its seed's point at the same threshold (the property suite pins this).

enum class RefinerKind { kLocalSearch, kAnnealing };

class RefinerMember final : public PortfolioMember {
 public:
  RefinerMember(RefinerKind kind, heuristics::HeuristicId base) : kind_(kind), base_(base) {}

  [[nodiscard]] std::string id() const override {
    return (kind_ == RefinerKind::kLocalSearch ? "ls:H" : "sa:H") +
           std::to_string(static_cast<int>(base_) + 1);
  }
  [[nodiscard]] std::string solverName() const override { return id(); }
  [[nodiscard]] bool accepts(const core::Evaluator&, const PortfolioConfig&) const override {
    return true;
  }

  class RefineRun final : public Run {
   public:
    RefineRun(RefinerKind kind, std::unique_ptr<heuristics::MappingHeuristic> h,
              const core::Evaluator& eval, const SweepSpec& sweep, std::size_t annealingMoves,
              const SubShare* share)
        : kind_(kind),
          h_(std::move(h)),
          eval_(eval),
          sweep_(sweep),
          share_(share),
          seeded_(0),
          grid_(eval, *h_, sweep.range, share, seeded_),
          annealingMoves_(std::max<std::size_t>(1, annealingMoves)) {}

    [[nodiscard]] std::size_t units() const override { return sweep_.points; }

    [[nodiscard]] std::string unitKey(std::size_t i) const override {
      const Real t = exp::sweepThreshold(grid_.lo, grid_.hi, sweep_.points, i);
      // The annealing refiner's output depends on the move budget; embed it
      // so services configured differently can never alias a unit.
      return kind_ == RefinerKind::kLocalSearch
                 ? sweepUnitKey(baseTag("ls:H"), t)
                 : sweepUnitKey(baseTag("sa:H") + ":m" + std::to_string(annealingMoves_), t);
    }

    [[nodiscard]] std::vector<core::ParetoPoint> unit(std::size_t i) override {
      const Real t = exp::sweepThreshold(grid_.lo, grid_.hi, sweep_.points, i);
      // Seed acquisition: the base heuristic's run at t is itself a shareable
      // sub-result — reuse the cached one (byte-identical: the heuristics are
      // deterministic) or compute and publish it for the other refiners.
      heuristics::Result seed;
      bool haveSeed = false;
      const std::string baseKey = sweepUnitKey(baseTag("H"), t);
      if (share_ != nullptr) {
        if (const std::optional<SubResult> memo = share_->load(baseKey);
            memo && memo->seed) {
          seed = *memo->seed;
          haveSeed = true;
          ++seeded_;
        }
      }
      if (!haveSeed) {
        seed = h_->run(eval_, t);
        if (share_ != nullptr) {
          // Publish exactly what the base member itself would have: its unit
          // points plus the raw result as the seed payload.
          SubResult memo;
          if (seed.success) memo.points.push_back(makePoint(seed.metrics, seed.mapping));
          memo.seed = seed;
          share_->store(baseKey, std::move(memo));
        }
      }
      std::vector<core::ParetoPoint> out;
      if (kind_ == RefinerKind::kLocalSearch) {
        // Mirrors heuristics::refineWithLocalSearch with an injected seed:
        // polish under the same threshold, report the refined mapping.
        const heuristics::LocalSearchResult refined =
            heuristics::localSearch(eval_, seed.mapping, h_->objective(), t);
        if (refined.feasible) out.push_back(makePoint(refined.metrics, refined.mapping));
      } else {
        // The seed mapping is valid even when the heuristic misses the
        // threshold — the refiner may still reach feasibility from it.
        heuristics::AnnealingOptions options;
        options.moves = annealingMoves_;
        // Deterministic but decorrelated across thresholds and base
        // heuristics. Keyed on the *threshold bits*, not the grid index, so
        // the unit is a pure function of (instance, member, threshold) and
        // equal thresholds from different sweep grids share one result.
        options.seed = 0x9e3779b97f4a7c15ULL ^
                       (std::bit_cast<std::uint64_t>(t) * 2654435761ULL) ^
                       static_cast<std::uint64_t>(h_->id());
        const heuristics::AnnealingResult r =
            heuristics::anneal(eval_, seed.mapping, h_->objective(), t, options);
        if (r.feasible) out.push_back(makePoint(r.metrics, r.mapping));
      }
      return out;
    }

    [[nodiscard]] std::size_t seeded() const override { return seeded_; }

   private:
    [[nodiscard]] std::string baseTag(const char* prefix) const {
      return prefix + std::to_string(static_cast<int>(h_->id()) + 1);
    }

    RefinerKind kind_;
    std::unique_ptr<heuristics::MappingHeuristic> h_;
    const core::Evaluator& eval_;
    SweepSpec sweep_;
    const SubShare* share_;
    std::size_t seeded_;
    Grid grid_;
    std::size_t annealingMoves_;
  };

  [[nodiscard]] std::unique_ptr<Run> start(const core::Evaluator& eval, const SweepSpec& sweep,
                                           const PortfolioConfig& config,
                                           const SubShare* share) const override {
    return std::make_unique<RefineRun>(kind_, heuristics::makeHeuristic(base_), eval, sweep,
                                       config.annealingMoves, share);
  }

 private:
  RefinerKind kind_;
  heuristics::HeuristicId base_;
};

// ---------------------------------------------------------------------------
// c2c / c2c:ls: the chains-to-chains solvers, on instances they accept
// (communication-homogeneous platforms). Their partitions ignore
// communication, but every emitted point is the partition *re-scored*
// through core::Evaluator — a genuine mapping, merged on equal terms.

/// HeteroSolution -> evaluated ParetoPoint (nullopt-free: the partition is
/// structurally valid by construction).
std::vector<core::ParetoPoint> evaluateC2c(const core::Evaluator& eval,
                                           const c2c::HeteroSolution& solution) {
  if (solution.partition.intervalCount() == 0) return {};
  core::IntervalMapping mapping = core::IntervalMapping::fromCuts(
      eval.pipeline().stageCount(), solution.partition.ends, solution.processorOrder);
  const core::Metrics metrics = eval.evaluate(mapping);
  std::vector<core::ParetoPoint> out;
  out.push_back(makePoint(metrics, std::move(mapping)));
  return out;
}

class C2cDpMember final : public PortfolioMember {
 public:
  [[nodiscard]] std::string id() const override { return "c2c"; }
  [[nodiscard]] std::string solverName() const override { return "c2c-dp"; }
  [[nodiscard]] bool accepts(const core::Evaluator& eval,
                             const PortfolioConfig&) const override {
    return eval.platform().isCommHomogeneous();
  }

  class LadderRun final : public Run {
   public:
    explicit LadderRun(const core::Evaluator& eval)
        : eval_(eval), bySpeed_(eval.platform().processorsBySpeed()) {}

    // One unit per processor count k+1: the DP on the k+1 fastest
    // processors in speed order traces the latency/period trade-off the
    // same way the sweep members trace thresholds.
    [[nodiscard]] std::size_t units() const override { return bySpeed_.size(); }

    // Sweep-independent entirely: a warm sweep reuses the whole ladder.
    [[nodiscard]] std::string unitKey(std::size_t i) const override {
      return "c2c@k" + std::to_string(i + 1);
    }

    [[nodiscard]] std::vector<core::ParetoPoint> unit(std::size_t i) override {
      // Restrict the DP to the i+1 fastest processors (the order must cover
      // the whole speed list it is given), then translate its local indices
      // back to platform processor ids.
      std::vector<Real> speeds(i + 1);
      std::vector<std::size_t> order(i + 1);
      for (std::size_t j = 0; j <= i; ++j) {
        speeds[j] = eval_.platform().speed(bySpeed_[j]);
        order[j] = j;
      }
      c2c::HeteroSolution solution =
          c2c::dpWithFixedOrder(eval_.pipeline().works(), speeds, order);
      for (std::size_t& proc : solution.processorOrder) proc = bySpeed_[proc];
      return evaluateC2c(eval_, solution);
    }

   private:
    const core::Evaluator& eval_;
    std::vector<std::size_t> bySpeed_;
  };

  [[nodiscard]] std::unique_ptr<Run> start(const core::Evaluator& eval, const SweepSpec&,
                                           const PortfolioConfig&,
                                           const SubShare*) const override {
    return std::make_unique<LadderRun>(eval);
  }
};

class C2cLocalSearchMember final : public PortfolioMember {
 public:
  [[nodiscard]] std::string id() const override { return "c2c:ls"; }
  [[nodiscard]] std::string solverName() const override { return "c2c-ls"; }
  [[nodiscard]] bool accepts(const core::Evaluator& eval,
                             const PortfolioConfig&) const override {
    return eval.platform().isCommHomogeneous();
  }

  class OrderRun final : public Run {
   public:
    explicit OrderRun(const core::Evaluator& eval) : eval_(eval) {}

    [[nodiscard]] std::size_t units() const override { return 1; }

    [[nodiscard]] std::string unitKey(std::size_t) const override { return "c2c:ls"; }

    [[nodiscard]] std::vector<core::ParetoPoint> unit(std::size_t) override {
      const c2c::HeteroSolution solution =
          c2c::heteroLocalSearch(eval_.pipeline().works(), eval_.platform().speeds());
      return evaluateC2c(eval_, solution);
    }

   private:
    const core::Evaluator& eval_;
  };

  [[nodiscard]] std::unique_ptr<Run> start(const core::Evaluator& eval, const SweepSpec&,
                                           const PortfolioConfig&,
                                           const SubShare*) const override {
    return std::make_unique<OrderRun>(eval);
  }
};

// ---------------------------------------------------------------------------
// exact: the exhaustive enumerator, on instances small enough for it.

class ExactMember final : public PortfolioMember {
 public:
  [[nodiscard]] std::string id() const override { return "exact"; }
  [[nodiscard]] std::string solverName() const override { return "exact"; }
  [[nodiscard]] bool accepts(const core::Evaluator& eval,
                             const PortfolioConfig& config) const override {
    return exactEligible(eval.pipeline().stageCount(), eval.platform().processorCount(),
                         config);
  }

  class EnumRun final : public Run {
   public:
    EnumRun(const core::Evaluator& eval, std::uint64_t mappingLimit)
        : eval_(eval), mappingLimit_(mappingLimit) {}

    [[nodiscard]] std::size_t units() const override { return 1; }

    // The enumerated front depends on the mapping limit; embed it. Truncated
    // units are never published (the runner checks truncated()), so a cached
    // entry is always a complete enumeration.
    [[nodiscard]] std::string unitKey(std::size_t) const override {
      return "exact:L" + std::to_string(mappingLimit_);
    }

    [[nodiscard]] std::vector<core::ParetoPoint> unit(std::size_t) override {
      exact::ExhaustiveOptions options;
      options.mappingLimit = mappingLimit_;
      try {
        return exact::exhaustiveParetoFront(eval_, options);
      } catch (const ModelError&) {
        // Mapping limit hit: the exact member drops out, the heuristics
        // carry the front.
        truncated_ = true;
        return {};
      }
    }

    [[nodiscard]] bool truncated() const override { return truncated_; }

   private:
    const core::Evaluator& eval_;
    std::uint64_t mappingLimit_;
    bool truncated_ = false;
  };

  [[nodiscard]] std::unique_ptr<Run> start(const core::Evaluator& eval, const SweepSpec&,
                                           const PortfolioConfig& config,
                                           const SubShare*) const override {
    return std::make_unique<EnumRun>(eval, config.budget.exactMappingLimit);
  }
};

// ---------------------------------------------------------------------------
// Registry.

std::unique_ptr<PortfolioMember> makeMember(const std::string& id) {
  const auto heuristicId = [](char digit) -> std::optional<heuristics::HeuristicId> {
    if (digit < '1' || digit > '6') return std::nullopt;
    return static_cast<heuristics::HeuristicId>(digit - '1');
  };
  if (id.size() == 2 && id[0] == 'H') {
    if (const auto h = heuristicId(id[1])) return std::make_unique<HeuristicMember>(*h);
  }
  if (id.size() == 5 && (id.rfind("ls:H", 0) == 0 || id.rfind("sa:H", 0) == 0)) {
    if (const auto h = heuristicId(id[4])) {
      const RefinerKind kind =
          id[0] == 'l' ? RefinerKind::kLocalSearch : RefinerKind::kAnnealing;
      return std::make_unique<RefinerMember>(kind, *h);
    }
  }
  if (id == "c2c") return std::make_unique<C2cDpMember>();
  if (id == "c2c:ls") return std::make_unique<C2cLocalSearchMember>();
  if (id == "exact") return std::make_unique<ExactMember>();
  throw ModelError("unknown portfolio member '" + id +
                   "' (expected H1..H6, ls:H1..ls:H6, sa:H1..sa:H6, c2c, c2c:ls, exact)");
}

/// Drives one member's work session: the shared budget / deadline / drop
/// loop every member goes through, writing points + stats into its slot.
/// With `share`, whole units are served from / published to the sub-result
/// cache — the points that flow into the slot are byte-identical either way
/// (every memoized unit is a pure function of its share key), so the drop
/// policy, the budget accounting and the merged front cannot diverge.
void runMember(const PortfolioMember& member, const core::Evaluator& eval,
               const SweepSpec& sweep, const PortfolioConfig& config, const Deadline& deadline,
               const SubShare* share, Slot& slot) {
  // Always timed: two clock reads against a per-member run that is at least
  // microseconds of work, and the trace path needs the value even when the
  // registry is off.
  const Clock::time_point memberStart = Clock::now();
  slot.contribution.solver = member.solverName();
  // Fault site "member.<id>", e.g. member.H3. Site-name built only when a
  // spec is armed so the disarmed path stays allocation-free.
  const std::string faultSite =
      fault::armed() ? std::string(fault::sites::kMemberPrefix) + member.id() : std::string();
  // Drop a not-yet-started member outright when the deadline already passed:
  // start() itself can be a full heuristic run (the grid anchor).
  if (deadline.expired()) {
    slot.contribution.completed = false;
    slot.deadlineCut = true;
    return;
  }
  std::unique_ptr<PortfolioMember::Run> run;
  try {
    run = member.start(eval, sweep, config, share);
  } catch (const std::exception&) {
    // Contain member failures: this member contributes nothing, the others'
    // merged front ships flagged degraded instead of failing the request.
    slot.contribution.failed = true;
    slot.contribution.completed = false;
    return;
  }
  const std::size_t units = run->units();
  slot.contribution.units = units;
  slot.contribution.completed = true;
  core::ParetoFrontBuilder own;  // the member's own running front (drop policy)
  std::size_t stale = 0;
  for (std::size_t i = 0; i < units; ++i) {
    if (i >= config.budget.maxRunsPerSolver) {
      slot.contribution.completed = false;
      break;
    }
    if (deadline.expired()) {
      slot.contribution.completed = false;
      slot.deadlineCut = true;
      break;
    }
    if (!faultSite.empty() && fault::injected(faultSite)) {
      slot.contribution.failed = true;
      slot.contribution.completed = false;
      break;
    }
    if (config.dropAfter > 0 && stale >= config.dropAfter) {
      slot.contribution.dropped = true;
      slot.contribution.skipped = units - i;
      break;
    }
    std::vector<core::ParetoPoint> points;
    bool fromShare = false;
    std::string key;
    if (share != nullptr) key = run->unitKey(i);
    if (!key.empty()) {
      if (std::optional<SubResult> memo = share->load(key)) {
        points = std::move(memo->points);
        fromShare = true;
        slot.contribution.reused += 1;
      }
    }
    if (!fromShare) {
      try {
        points = run->unit(i);
      } catch (const std::exception&) {
        slot.contribution.failed = true;
        slot.contribution.completed = false;
        break;
      }
      // Publish the fresh unit (plus the member's warm-start payload) unless
      // an internal limit truncated it — a cached unit must always stand for
      // the complete computation its key names.
      if (!key.empty() && !run->truncated()) {
        SubResult memo;
        memo.points = points;
        run->attachSeed(i, memo);
        share->store(key, std::move(memo));
      }
    }
    bool contributed = false;
    for (core::ParetoPoint& p : points) {
      // Offer coordinates only: the accept/duplicate decision never reads
      // the mapping, so don't deep-copy it into the drop-policy front.
      if (own.offer(core::ParetoPoint{p.period, p.latency, std::nullopt})) {
        contributed = true;
        slot.contribution.novel += 1;
      }
      slot.points.push_back(std::move(p));
    }
    stale = contributed ? 0 : stale + 1;
  }
  if (run->truncated()) slot.contribution.completed = false;
  slot.contribution.points = slot.points.size();
  slot.contribution.seeded = run->seeded();
  slot.contribution.wallSeconds =
      std::chrono::duration<double>(Clock::now() - memberStart).count();
  if (obs::metricsEnabled()) {
    static obs::Histogram& memberRuns =
        obs::registry().histogram(obs::names::kMemberRun, obs::Unit::kNanoseconds);
    memberRuns.recordSeconds(slot.contribution.wallSeconds);
  }
}

}  // namespace

bool exactEligible(std::size_t stages, std::size_t processors, const PortfolioConfig& config) {
  return config.useExact && processors <= config.exactProcessorLimit &&
         stages * processors <= config.exactCellLimit;
}

std::vector<PortfolioMemberInfo> portfolioMemberCatalog() {
  std::vector<PortfolioMemberInfo> catalog;
  for (const std::string& id : allPortfolioMembers()) {
    const std::unique_ptr<PortfolioMember> member = makeMember(id);
    std::string description;
    if (id.size() == 2 && id[0] == 'H') {
      description = "registry heuristic swept over the threshold grid";
    } else if (id.rfind("ls:", 0) == 0) {
      description = "steepest-descent refiner seeded from " + id.substr(3) + " per grid point";
    } else if (id.rfind("sa:", 0) == 0) {
      description = "annealing refiner seeded from " + id.substr(3) + " per grid point";
    } else if (id == "c2c") {
      description = "chains-to-chains fixed-order DP over the k fastest processors";
    } else if (id == "c2c:ls") {
      description = "chains-to-chains processor-order local search";
    } else {
      description = "exhaustive enumerator on exact-eligible instances";
    }
    catalog.push_back(PortfolioMemberInfo{id, member->solverName(), std::move(description)});
  }
  return catalog;
}

std::vector<std::string> defaultPortfolioMembers() {
  return {"H1", "H2", "H3", "H4", "H5", "H6", "exact"};
}

std::vector<std::string> allPortfolioMembers() {
  std::vector<std::string> ids;
  for (int h = 1; h <= 6; ++h) ids.push_back("H" + std::to_string(h));
  for (int h = 1; h <= 6; ++h) ids.push_back("ls:H" + std::to_string(h));
  for (int h = 1; h <= 6; ++h) ids.push_back("sa:H" + std::to_string(h));
  ids.emplace_back("c2c");
  ids.emplace_back("c2c:ls");
  ids.emplace_back("exact");
  return ids;
}

std::vector<std::unique_ptr<PortfolioMember>> makePortfolioMembers(
    const PortfolioConfig& config) {
  const std::vector<std::string> ids =
      config.members.empty() ? defaultPortfolioMembers() : config.members;
  std::vector<std::unique_ptr<PortfolioMember>> members;
  members.reserve(ids.size());
  for (const std::string& id : ids) members.push_back(makeMember(id));
  return members;
}

PortfolioResult runPortfolio(const core::Evaluator& eval, const SweepSpec& sweep,
                             const PortfolioConfig& config, const SubShare* share,
                             const Deadline& requestDeadline) {
  if (sweep.points == 0) throw ModelError("runPortfolio: sweep.points must be >= 1");
  if (sweep.range <= 1) throw ModelError("runPortfolio: sweep.range must be > 1");

  // Effective deadline: the earlier of the config's wall-clock budget
  // (relative, anchored here) and the caller's absolute request deadline.
  const Deadline deadline =
      Deadline::earlier(Deadline::in(config.budget.timeBudgetMs), requestDeadline);

  // The accepted-member list is a pure function of (instance, config), so
  // slot order — and with it the merge — is too.
  std::vector<std::unique_ptr<PortfolioMember>> members;
  bool exactUsed = false;
  for (std::unique_ptr<PortfolioMember>& member : makePortfolioMembers(config)) {
    if (!member->accepts(eval, config)) continue;
    exactUsed |= member->id() == "exact";
    members.push_back(std::move(member));
  }
  std::vector<Slot> slots(members.size());

  const Clock::time_point raceStart = Clock::now();
  for (std::size_t i = 0; i < members.size(); ++i) {
    runMember(*members[i], eval, sweep, config, deadline, share, slots[i]);
  }

  const Clock::time_point mergeStart = Clock::now();

  PortfolioResult result;
  result.exactUsed = exactUsed;
  result.memberRaceSeconds = std::chrono::duration<double>(mergeStart - raceStart).count();
  // Remember each slot's coordinates before the merge consumes its points:
  // paretoFront keeps the FIRST representative of duplicate coordinates, so
  // the first slot (race order) holding a front point's coordinates is the
  // member that contributed it.
  std::vector<std::vector<std::pair<Real, Real>>> coords(slots.size());
  std::vector<core::ParetoPoint> all;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    Slot& slot = slots[s];
    coords[s].reserve(slot.points.size());
    for (const core::ParetoPoint& p : slot.points) coords[s].emplace_back(p.period, p.latency);
    all.insert(all.end(), std::make_move_iterator(slot.points.begin()),
               std::make_move_iterator(slot.points.end()));
    result.budgetExhausted |= !slot.contribution.completed;
    if (slot.deadlineCut || slot.contribution.failed) {
      result.degraded = true;
      if (obs::metricsEnabled()) {
        obs::registry().counter(obs::names::kDegradedMembers).add();
      }
    }
    result.solvers.push_back(std::move(slot.contribution));
  }
  result.front = core::paretoFront(std::move(all));
  for (const core::ParetoPoint& p : result.front) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const bool hit = std::any_of(coords[s].begin(), coords[s].end(), [&](const auto& c) {
        return nearlyEqual(c.first, p.period) && nearlyEqual(c.second, p.latency);
      });
      if (hit) {
        result.solvers[s].merged += 1;
        break;
      }
    }
  }
  result.mergeSeconds = std::chrono::duration<double>(Clock::now() - mergeStart).count();
  if (obs::metricsEnabled()) {
    obs::stageHistogram(obs::Stage::kMemberSolve).recordSeconds(result.memberRaceSeconds);
    obs::stageHistogram(obs::Stage::kMerge).recordSeconds(result.mergeSeconds);
  }
  return result;
}

}  // namespace pipesched::service
