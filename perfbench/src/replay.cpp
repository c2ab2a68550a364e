#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "pipesched/io/json.hpp"
#include "pipesched/net/http.hpp"
#include "pipesched/obs/trace.hpp"
#include "pipesched/service/fingerprint.hpp"
#include "pipesched/service/service.hpp"
#include "pipesched/stream/async_scheduler.hpp"
#include "pipesched/stream/sink.hpp"
#include "pipesched/stream/source.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace service = pipesched::service;
namespace stream = pipesched::stream;
using Clock = std::chrono::steady_clock;

/// Parses one request line exactly as the server's POST handler does.
service::Request parseLine(const std::string& line) {
  std::istringstream in(line);
  stream::JsonlSource source(in, stream::JsonlDefaults{});
  std::optional<service::Request> request = source.next();
  if (!request) throw std::runtime_error("benchmark request line did not parse");
  return std::move(*request);
}

/// The outcome line the server's POST /solve renders for a one-line body.
std::string renderOutcome(const service::Request& request,
                          const service::RequestOutcome& outcome) {
  std::string line;
  pipesched::io::StringOutStream out(line);
  pipesched::io::JsonWriter w(out, /*pretty=*/false);
  w.beginObject();
  w.kv("index", std::size_t{0});
  w.kv("line", std::size_t{1});
  stream::writeOutcomeFields(w, request.name, outcome);
  w.endObject();
  return line;
}

// -- Spans -------------------------------------------------------------------

enum SpanName : std::uint16_t {
  kRequest,
  kHttpParse,
  kIoParse,
  kFingerprint,
  kSolve,
  kCacheGet,
  kPortfolio,
  kMerge,
  kEmit,
  kHttpRender,
};

const char* const kFixedNames[] = {
    "request",       "net.http_parse",    "io.parse",          "service.fingerprint",
    "service.solve", "service.cache_get", "service.portfolio", "service.merge",
    "io.emit",       "net.http_render",
};

/// Layer of a span name: the text before the first '.', "exact" for the
/// exact member; the root span belongs to no layer.
std::string layerOf(const std::string& name) {
  if (name == "request") return {};
  return name.substr(0, name.find('.'));
}

class SpanRecorder {
 public:
  explicit SpanRecorder(bool on) : on_(on), origin_(Clock::now()) {
    names_.assign(std::begin(kFixedNames), std::end(kFixedNames));
    if (on_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool on() const noexcept { return on_; }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  std::int32_t open(std::uint16_t name, std::uint32_t request, std::int32_t parent) {
    if (!on_) return -1;
    spans_.push_back(Span{name, request, parent, now(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void close(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end = now();
  }

  std::int32_t add(std::uint16_t name, std::uint32_t request, std::int32_t parent,
                   double start, double end) {
    if (!on_) return -1;
    spans_.push_back(Span{name, request, parent, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::uint16_t nameId(const std::string& name) {
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end()) return static_cast<std::uint16_t>(it - names_.begin());
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  std::vector<Span>& spans() { return spans_; }
  std::vector<std::string>& names() { return names_; }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// Span name of a portfolio member: "heuristics.H3" for "H3-SpMonoL",
/// "exact" for the exact enumerator.
std::string memberSpanName(const std::string& solver) {
  if (solver == "exact") return "exact";
  return "heuristics." + solver.substr(0, solver.find('-'));
}

/// service::SchedulingService::solve with a span around the call. The
/// service's own RequestTrace (cache lookup, then each member's wall and
/// the merge) becomes child spans laid end to end from the call's start;
/// what the trace does not cover (evaluator, cache write) is the solve
/// span's self time. Members race serially, as on the server's workers.
service::RequestOutcome solveTraced(service::SchedulingService& solver,
                                    const service::Request& request,
                                    const service::RequestIdentity& identity,
                                    SpanRecorder& rec, std::uint32_t id, std::int32_t root) {
  namespace obs = pipesched::obs;
  if (!rec.on()) return solver.solve(request, identity, nullptr);
  obs::RequestTrace trace;
  const std::int32_t span = rec.open(kSolve, id, root);
  const double start = rec.now();
  service::RequestOutcome outcome = solver.solve(request, identity, &trace);
  rec.close(span);
  if (!outcome.trace) return outcome;
  const obs::RequestTrace& t = *outcome.trace;
  const auto seconds = [&t](obs::Stage stage) {
    return t.stageSeconds[static_cast<std::size_t>(stage)];
  };
  const double raceStart = start + seconds(obs::Stage::kCacheLookup);
  rec.add(kCacheGet, id, span, start, raceStart);
  if (outcome.fromCache || !outcome.ok) return outcome;
  const double mergeStart = raceStart + seconds(obs::Stage::kMemberSolve);
  const double end = mergeStart + seconds(obs::Stage::kMerge);
  const std::int32_t portfolio = rec.add(kPortfolio, id, span, raceStart, end);
  double cursor = raceStart;
  for (const auto& [member, wall] : t.members) {
    rec.add(rec.nameId(memberSpanName(member)), id, portfolio, cursor, cursor + wall);
    cursor += wall;
  }
  rec.add(kMerge, id, portfolio, mergeStart, end);
  return outcome;
}

/// Sets metric `key` to a percentile in `scale` units: 0 for a layer that
/// did no work, and left out — so the run reports it missing and fails —
/// when the sample is too small for the percentile.
void setPercentile(std::map<std::string, double>& metrics, const std::string& key,
                   const std::vector<double>& samples, double q, double scale) {
  if (samples.empty()) {
    metrics[key] = 0;
    return;
  }
  const std::optional<double> value = percentile(samples, q);
  if (!value) {
    std::cerr << "perfbench: " << key << " has " << samples.size()
              << " samples, too few for its percentile; not reported\n";
    return;
  }
  metrics[key] = *value * scale;
}

}  // namespace

std::vector<AnswerDigest> checkReplay(const WorkloadStream& stream, std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  std::vector<AnswerDigest> answers(stream.lines.size());
  std::atomic<bool> failed{false};
  std::string error;
  std::mutex errorMutex;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        service::SchedulingService solver(service::ServiceConfig{});
        for (std::size_t key = 0; key < stream.lines.size(); ++key) {
          if (stream.instanceOf[key] % threads != t) continue;
          const service::Request request = parseLine(stream.lines[key]);
          answers[key] = digestOutcomeLine(renderOutcome(request, solver.solve(request)));
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(errorMutex);
        failed = true;
        error = e.what();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (failed) throw std::runtime_error("check replay failed: " + error);
  return answers;
}

namespace {

/// One POST through every layer the server's handler touches, as the
/// server calls them, with a span around each call.
AnswerDigest replayOne(service::SchedulingService& solver, const std::string& post,
                       SpanRecorder& r, std::uint32_t id, service::RequestOutcome& outcome) {
  const std::int32_t root = r.open(kRequest, id, -1);
  std::int32_t span = r.open(kHttpParse, id, root);
  pipesched::net::HttpParser parser;
  if (parser.consume(post) != pipesched::net::HttpParser::Status::kComplete) {
    throw std::runtime_error("replayed POST did not parse");
  }
  r.close(span);

  span = r.open(kIoParse, id, root);
  const service::Request request = parseLine(parser.request().body);
  r.close(span);

  span = r.open(kFingerprint, id, root);
  const service::RequestIdentity identity = service::requestIdentity(request);
  r.close(span);

  outcome = solveTraced(solver, request, identity, r, id, root);

  span = r.open(kEmit, id, root);
  const std::string line = renderOutcome(request, outcome);
  r.close(span);

  span = r.open(kHttpRender, id, root);
  const std::string response =
      pipesched::net::renderHttpResponse(200, "application/x-ndjson", line + "\n", true);
  r.close(span);
  r.close(root);
  return digestOutcomeLine(line);
}

std::vector<std::string> renderPosts(const WorkloadStream& stream) {
  std::vector<std::string> posts;
  posts.reserve(stream.lines.size());
  for (const std::string& line : stream.lines) posts.push_back(renderPost(line));
  return posts;
}

/// The server's set-up, replayed but not recorded.
std::vector<AnswerDigest> replayPrime(const WorkloadStream& stream,
                                      const std::vector<std::string>& posts,
                                      service::SchedulingService& solver) {
  SpanRecorder off(false);
  service::RequestOutcome outcome;
  std::vector<AnswerDigest> answers;
  for (const Send& send : stream.prime) {
    answers.push_back(replayOne(solver, posts[send.key], off, 0, outcome));
  }
  return answers;
}

}  // namespace

LayerReport layerReplay(const WorkloadStream& stream) {
  LayerReport report;
  const std::vector<std::string> posts = renderPosts(stream);
  service::SchedulingService solver;
  report.primeAnswers = replayPrime(stream, posts, solver);

  SpanRecorder rec(true);
  service::RequestOutcome outcome;
  const service::CacheStats before = solver.cacheStats();
  for (std::size_t i = 0; i < stream.timed.size(); ++i) {
    report.timedAnswers.push_back(replayOne(solver, posts[stream.timed[i].key], rec,
                                            static_cast<std::uint32_t>(i), outcome));
    if (outcome.fromCache) ++report.hits;
    if (outcome.fromCache || !outcome.ok) continue;
    const service::PortfolioResult& result = outcome.result;
    ++report.portfolioCalls;
    report.exactUsed += result.exactUsed ? 1 : 0;
    report.mergeSeconds += result.mergeSeconds;
    for (const service::SolverContribution& c : result.solvers) {
      report.unitsWanted += c.units;
      report.unitsReused += c.reused;
      report.memberSeconds[memberSpanName(c.solver)] += c.wallSeconds;
    }
  }
  report.timedCount = stream.timed.size();
  report.evictions = solver.cacheStats().evictions - before.evictions;
  report.spans = std::move(rec.spans());
  report.spanNames = std::move(rec.names());
  return report;
}

double tracingOverheadPercent(const WorkloadStream& stream, std::size_t limit) {
  const std::vector<std::string> posts = renderPosts(stream);
  service::SchedulingService solverOn;
  service::SchedulingService solverOff;
  (void)replayPrime(stream, posts, solverOn);
  (void)replayPrime(stream, posts, solverOff);
  SpanRecorder on(true);
  SpanRecorder off(false);
  service::RequestOutcome outcome;
  const auto timeOne = [&](service::SchedulingService& solver, SpanRecorder& rec,
                           std::size_t i) {
    const Clock::time_point start = Clock::now();
    (void)replayOne(solver, posts[stream.timed[i].key], rec, static_cast<std::uint32_t>(i),
                    outcome);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // Both copies see the same request sequence, so their caches stay in
  // step. Which copy goes first alternates per request, and the per-request
  // ratios are averaged in log space: the second run's warmer CPU caches
  // cancel out whatever each request costs.
  const std::size_t count = std::min(limit, stream.timed.size()) / 2 * 2;
  double logRatios = 0;
  for (std::size_t i = 0; i < count; ++i) {
    double onSeconds = 0;
    double offSeconds = 0;
    if (i % 2 == 0) {
      onSeconds = timeOne(solverOn, on, i);
      offSeconds = timeOne(solverOff, off, i);
    } else {
      offSeconds = timeOne(solverOff, off, i);
      onSeconds = timeOne(solverOn, on, i);
    }
    logRatios += std::log(onSeconds / offSeconds);
  }
  return count == 0 ? 0.0 : (std::exp(logRatios / static_cast<double>(count)) - 1) * 100;
}

void summarizeLayers(LayerReport& report) {
  // Durations by span name and self time by layer.
  std::vector<std::vector<double>> durations(report.spanNames.size());
  std::vector<double> childSeconds(report.spans.size(), 0);
  for (const Span& s : report.spans) {
    durations[s.name].push_back(s.end - s.start);
    if (s.parent >= 0) childSeconds[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> layerSeconds;
  for (std::size_t i = 0; i < report.spans.size(); ++i) {
    const Span& s = report.spans[i];
    const std::string layer = layerOf(report.spanNames[s.name]);
    if (layer.empty()) continue;
    layerSeconds[layer] += std::max(0.0, (s.end - s.start) - childSeconds[i]);
  }
  const double n = std::max<double>(1, static_cast<double>(report.timedCount));
  auto& m = report.metrics;
  setPercentile(m, "net.http_parse_us_p50", durations[kHttpParse], 0.5, 1e6);
  setPercentile(m, "io.parse_us_p50", durations[kIoParse], 0.5, 1e6);
  setPercentile(m, "io.parse_us_p99", durations[kIoParse], 0.99, 1e6);
  setPercentile(m, "io.emit_us_p50", durations[kEmit], 0.5, 1e6);
  setPercentile(m, "service.fingerprint_us_p50", durations[kFingerprint], 0.5, 1e6);
  setPercentile(m, "service.fingerprint_us_p99", durations[kFingerprint], 0.99, 1e6);
  setPercentile(m, "service.cache_get_us_p50", durations[kCacheGet], 0.5, 1e6);
  m["service.cache_hit_ratio"] = static_cast<double>(report.hits) / n;
  m["service.cache_evictions"] = static_cast<double>(report.evictions);
  setPercentile(m, "service.portfolio_ms_p50", durations[kPortfolio], 0.5, 1e3);
  setPercentile(m, "service.portfolio_ms_p99", durations[kPortfolio], 0.99, 1e3);
  m["service.portfolio_calls"] = static_cast<double>(report.portfolioCalls);
  m["service.merge_ms_per_req"] = report.mergeSeconds * 1e3 / n;
  m["service.sub_reuse_ratio"] =
      report.unitsWanted == 0 ? 0.0
                              : static_cast<double>(report.unitsReused) /
                                    static_cast<double>(report.unitsWanted);
  for (int h = 1; h <= 6; ++h) {
    const std::string name = "heuristics.H" + std::to_string(h);
    m[name + ".ms_per_req"] = report.memberSeconds[name] * 1e3 / n;
  }
  m["exact.ms_per_req"] = report.memberSeconds["exact"] * 1e3 / n;
  m["exact.used_ratio"] = report.portfolioCalls == 0
                              ? 0.0
                              : static_cast<double>(report.exactUsed) /
                                    static_cast<double>(report.portfolioCalls);
  for (const auto& [layer, seconds] : layerSeconds) m["layer_seconds." + layer] = seconds;
}

void streamPass(const WorkloadStream& workload, LayerReport& report) {
  std::vector<service::Request> prime;
  for (const Send& send : workload.prime) prime.push_back(parseLine(workload.lines[send.key]));
  std::vector<service::Request> timed;
  for (const Send& send : workload.timed) timed.push_back(parseLine(workload.lines[send.key]));

  stream::StreamConfig config;
  config.workers = 2;
  stream::AsyncScheduler scheduler(config);
  for (service::Request& request : prime) (void)scheduler.submit(std::move(request)).get();
  const stream::StreamStats before = scheduler.stats();

  struct Slot {
    Clock::time_point submitted;
    Clock::time_point completed;
    double solveSeconds = 0;  ///< the outcome's own race + merge
  };
  std::vector<Slot> slots(timed.size());
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  for (std::size_t i = 0; i < timed.size(); ++i) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return outstanding < workload.connections; });
      ++outstanding;
    }
    slots[i].submitted = Clock::now();
    scheduler.submit(std::move(timed[i]), [&, i](const service::Request&,
                                                 const service::RequestOutcome& outcome) {
      Slot& slot = slots[i];
      slot.completed = Clock::now();
      // A cache hit carries the stored result's timings, not work of its own.
      slot.solveSeconds = outcome.fromCache ? 0.0
                                            : outcome.result.memberRaceSeconds +
                                                  outcome.result.mergeSeconds;
      std::lock_guard<std::mutex> lock(mutex);
      --outstanding;
      cv.notify_all();
    });
  }
  scheduler.drain();
  const stream::StreamStats after = scheduler.stats();

  // The per-request service work inside a queue wait (identity walk, cache
  // probe) is already the service layer's share; the stream's own share is
  // what is left.
  std::vector<double> serviceBefore(slots.size(), 0);
  for (const Span& s : report.spans) {
    if ((s.name == kFingerprint || s.name == kCacheGet) && s.request < serviceBefore.size()) {
      serviceBefore[s.request] += s.end - s.start;
    }
  }
  std::vector<double> waits;
  double streamSeconds = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const double wait = std::max(
        0.0, std::chrono::duration<double>(slots[i].completed - slots[i].submitted).count() -
                 slots[i].solveSeconds);
    waits.push_back(wait);
    streamSeconds += std::max(0.0, wait - serviceBefore[i]);
  }
  auto& m = report.metrics;
  setPercentile(m, "stream.queue_wait_ms_p50", waits, 0.5, 1e3);
  setPercentile(m, "stream.queue_wait_ms_p99", waits, 0.99, 1e3);
  m["stream.coalesced_ratio"] = static_cast<double>(after.coalesced - before.coalesced) /
                                std::max<double>(1, static_cast<double>(timed.size()));
  m["layer_seconds.stream"] = streamSeconds;

  double total = 0;
  for (const char* layer : {"net", "io", "service", "heuristics", "exact", "stream"}) {
    total += m["layer_seconds." + std::string(layer)];
  }
  for (const char* layer : {"net", "io", "service", "heuristics", "exact", "stream"}) {
    const std::string key = "layer_seconds." + std::string(layer);
    m["share." + std::string(layer)] = total > 0 ? m[key] / total : 0.0;
    m.erase(key);
  }
}

void writeSpans(const LayerReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  char line[256];
  for (const Span& s : report.spans) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"request\":%u,\"parent\":%d,\"start_us\":%.3f,"
                  "\"end_us\":%.3f}\n",
                  report.spanNames[s.name].c_str(), s.request, s.parent, s.start * 1e6,
                  s.end * 1e6);
    out << line;
  }
}

}  // namespace perfbench
