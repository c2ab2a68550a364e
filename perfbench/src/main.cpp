// perfbench_loadgen — one benchmark run of `pipesched serve --listen`.
//
//   perfbench_loadgen --cli PATH --workload NAME --seed N --seconds S
//                     --trace 0|1 --out-dir DIR
//
// Builds the workload's request stream from the seed, sets the server up
// five times (spawn, bind, /healthz, priming; all but the last are drained
// again) and drives the timed phase on the last. The server's answers are
// checked against an in-process replay of the same stream, its /stats
// counters against the workload's intent, and its drain on SIGTERM. With
// --trace 1 the replay is serial and traced, and the per-layer metrics are
// reported instead of the end-to-end ones.
//
// Prints one JSON object: correct, attempted, failed, metrics (name ->
// {value, unit}), the failed checks, and the exact server argv.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "pipesched/io/json.hpp"
#include "pipesched/io/json_reader.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;

struct Options {
  std::string cli;
  Workload workload = Workload::kColdPaper;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string outDir = ".";
};

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--cli") {
      o.cli = value;
    } else if (arg == "--workload") {
      const auto w = workloadFromName(value);
      if (!w) throw std::invalid_argument("unknown workload " + value);
      o.workload = *w;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--out-dir") {
      o.outDir = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (o.cli.empty()) throw std::invalid_argument("--cli is required");
  return o;
}

/// Counters of a GET /stats snapshot that the workload intent is judged on.
struct ServeCounters {
  double cacheHits = 0;
  double coalesced = 0;
  double subHits = 0;
};

ServeCounters readCounters(const std::string& body) {
  const auto root = pipesched::io::parseJson(body);
  const auto number = [&](const char* object, const char* field) {
    const auto* o = root.find(object);
    const auto* v = o != nullptr ? o->find(field) : nullptr;
    if (v == nullptr) throw std::runtime_error(std::string("/stats lacks ") + object + "." + field);
    return v->asNumber();
  };
  ServeCounters c;
  c.cacheHits = number("scheduler", "cache_hits");
  c.coalesced = number("scheduler", "coalesced");
  c.subHits = number("sub_cache", "hits");
  return c;
}

/// Timed requests the tracing-overhead replay pairs: a few seconds of
/// replay on each workload.
std::size_t overheadLimit(Workload workload) {
  switch (workload) {
    case Workload::kColdPaper:
      return 80;
    case Workload::kSweepRefine:
      return 200;
  }
  return 100;
}

struct Metric {
  double value = 0;
  const char* unit = "";
};

/// Unit of a per-layer metric, read off its name.
const char* layerUnit(const std::string& name) {
  if (name.find("_us_") != std::string::npos) return "us";
  if (name.find("_ms_") != std::string::npos || name.ends_with("ms_per_req")) return "ms";
  if (name.ends_with("_calls") || name.ends_with("_evictions")) return "count";
  return "ratio";
}

class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool passed() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

void compareAnswers(const LoadResult& load, const std::vector<Send>& sends,
                    const std::vector<AnswerDigest>& expected, const char* phase,
                    Checks& checks) {
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const SendResult& r = load.sends[i];
    if (r.status == 200 && r.answer.healthy && r.answer.hash == expected[i].hash &&
        expected[i].healthy) {
      continue;
    }
    ++mismatched;
  }
  checks.require(mismatched == 0, std::string(phase) + ": " + std::to_string(mismatched) +
                                      " answer(s) differ from the replay or are not OK" +
                                      (load.firstBadBody.empty() ? "" : " — first bad: " +
                                                                            load.firstBadBody.substr(0, 300)));
}

std::vector<AnswerDigest> perSend(const std::vector<Send>& sends,
                                  const std::vector<AnswerDigest>& byKey) {
  std::vector<AnswerDigest> out;
  out.reserve(sends.size());
  for (const Send& send : sends) out.push_back(byKey[send.key]);
  return out;
}

/// Disjoint CPUs for the server and the generator. With at least four CPUs
/// allowed, the server (I/O thread and two workers) gets all but the last
/// and the generator the last, so neither preempts the other and the
/// server's threads do not migrate onto the generator's core. nullopt on a
/// smaller host: nothing is pinned.
struct CpuSplit {
  cpu_set_t all;
  cpu_set_t server;
  cpu_set_t generator;
};

std::optional<CpuSplit> splitCpus() {
  CpuSplit split{};
  if (::sched_getaffinity(0, sizeof split.all, &split.all) != 0) return std::nullopt;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &split.all)) cpus.push_back(c);
  }
  if (cpus.size() < 4) return std::nullopt;
  CPU_ZERO(&split.server);
  CPU_ZERO(&split.generator);
  for (std::size_t i = 0; i + 1 < cpus.size(); ++i) CPU_SET(cpus[i], &split.server);
  CPU_SET(cpus.back(), &split.generator);
  return split;
}

/// Pins the calling thread; a process it spawns afterwards inherits the set.
void pinThisThread(const std::optional<CpuSplit>& split, cpu_set_t CpuSplit::*which) {
  if (!split) return;
  if (::sched_setaffinity(0, sizeof(cpu_set_t), &((*split).*which)) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// Phase timings on stderr, for whoever watches a slow run.
class PhaseLog {
 public:
  void mark(const char* phase) {
    const Clock::time_point now = Clock::now();
    std::cerr << "perfbench: " << phase << " "
              << std::chrono::duration<double>(now - last_).count() << " s\n";
    last_ = now;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

int run(const Options& o) {
  PhaseLog phases;
  const WorkloadStream stream = makeStream(o.workload, o.seed, o.seconds);
  const std::string name = workloadName(o.workload);
  const std::string base = o.outDir + "/" + name + "-seed" + std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0");
  const std::vector<std::string> flags{"--threads", "2", "--trace", "off"};
  Checks checks;

  // Set-up, five times: spawn -> bound -> /healthz -> priming. The last
  // server goes on into the timed phase.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  pipesched::net::Endpoint endpoint;
  LoadResult prime;
  const std::optional<CpuSplit> cpus = splitCpus();
  for (int rep = 0; rep < kSetups; ++rep) {
    server = std::make_unique<ServerProcess>(o.cli, flags, base + ".port",
                                             base + ".server.log");
    const Clock::time_point t0 = Clock::now();
    pinThisThread(cpus, &CpuSplit::server);
    endpoint = server->start();
    pinThisThread(cpus, &CpuSplit::generator);
    prime = driveLoad(endpoint, stream, stream.prime, 2);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (rep + 1 < kSetups) {
      checks.require(server->drain().clean(), "set-up server did not drain cleanly");
    }
  }
  const std::vector<std::string> serveArgv = server->argv();
  phases.mark("set-up");

  const auto statsBefore = httpGet(endpoint, "/stats");
  if (!statsBefore || statsBefore->status != 200) throw std::runtime_error("GET /stats failed");
  const auto hostStart = hostTicks();
  const auto cpuStart = processCpuTicks(server->pid());
  const LoadResult load = driveLoad(endpoint, stream, stream.timed, stream.connections);
  const auto cpuEnd = processCpuTicks(server->pid());
  const auto hostEnd = hostTicks();
  const auto rss = processPeakRssMb(server->pid());
  const auto statsAfter = httpGet(endpoint, "/stats");
  if (!statsAfter || statsAfter->status != 200) throw std::runtime_error("GET /stats failed");
  if (!cpuStart || !cpuEnd || !rss) throw std::runtime_error("cannot read /proc for the server");
  std::ofstream(base + ".stats.json") << statsAfter->body;
  const ServerProcess::Drain drain = server->drain();
  checks.require(drain.exited, "server did not exit after SIGTERM");
  checks.require(drain.exitCode == 0, "server exit code " + std::to_string(drain.exitCode));
  checks.require(drain.portFileRemoved, "server left its port file behind");
  phases.mark("timed phase and drain");
  // The replays below run on every CPU again.
  pinThisThread(cpus, &CpuSplit::all);

  // The workload's intent, judged on the server's own counters.
  const ServeCounters c0 = readCounters(statsBefore->body);
  const ServeCounters c1 = readCounters(statsAfter->body);
  const auto timedCount = static_cast<double>(stream.timed.size());
  switch (o.workload) {
    case Workload::kColdPaper:
      checks.require(c1.cacheHits == 0, "cold_paper: the server reported cache hits");
      break;
    case Workload::kSweepRefine:
      checks.require(c1.subHits - c0.subHits > 0, "sweep_refine: no sub-result hits");
      checks.require(c1.coalesced - c0.coalesced > 0, "sweep_refine: nothing coalesced");
      break;
  }

  std::map<std::string, Metric> metrics;
  std::vector<double> lateness;
  for (const SendResult& r : load.sends) lateness.push_back(r.lateness);
  if (!o.trace) {
    const std::vector<AnswerDigest> expected =
        checkReplay(stream, std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    compareAnswers(prime, stream.prime, perSend(stream.prime, expected), "prime", checks);
    compareAnswers(load, stream.timed, perSend(stream.timed, expected), "timed", checks);
    phases.mark("check replay");
  } else {
    LayerReport report = layerReplay(stream);
    compareAnswers(prime, stream.prime, report.primeAnswers, "prime", checks);
    compareAnswers(load, stream.timed, report.timedAnswers, "timed", checks);
    phases.mark("traced replay");
    summarizeLayers(report);
    streamPass(stream, report);
    writeSpans(report, base + ".spans.jsonl");
    phases.mark("stream pass");
    const double overhead = tracingOverheadPercent(stream, overheadLimit(o.workload));
    phases.mark("overhead replays");
    for (const auto& [key, value] : report.metrics) metrics[key] = Metric{value, layerUnit(key)};
    // Left out when refused, so the run reports the metric missing.
    if (const auto late = percentile(lateness, 0.99)) {
      metrics["loadgen.late_ms_p99"] = Metric{*late * 1e3, "ms"};
    }
    metrics["trace.overhead_pct"] = Metric{overhead, "%"};
  }

  std::vector<double> latencies;
  std::size_t ok = 0;
  for (const SendResult& r : load.sends) {
    if (r.status != 200 || !r.answer.healthy) continue;
    ++ok;
    latencies.push_back(r.latency);
  }
  const auto p50 = percentile(latencies, 0.5);
  const auto p99 = percentile(latencies, 0.99);
  checks.require(p50.has_value() && p99.has_value(),
                 "too few OK answers for a p99 (needs 10 beyond it)");
  if (!o.trace) {
    metrics["setup_s"] = Metric{median(setups), "s"};
    metrics["throughput_rps"] = Metric{static_cast<double>(ok) / load.wallSeconds, "1/s"};
    metrics["latency_p50_ms"] = Metric{p50.value_or(0) * 1e3, "ms"};
    metrics["latency_p99_ms"] = Metric{p99.value_or(0) * 1e3, "ms"};
    metrics["ok_ratio"] = Metric{static_cast<double>(ok) / timedCount, "ratio"};
    metrics["server_cpu_ms_per_req"] =
        Metric{cpuMsInWindow(*cpuStart, *cpuEnd) / timedCount, "ms"};
    metrics["server_rss_mb"] = Metric{*rss, "MB"};
  }

  std::ostringstream out;
  pipesched::io::JsonWriter w(out, /*pretty=*/false);
  w.beginObject();
  w.kv("correct", checks.passed());
  w.kv("attempted", stream.timed.size());
  w.kv("failed", stream.timed.size() - ok);
  w.key("metrics").beginObject();
  for (const auto& [key, metric] : metrics) {
    w.key(key).beginObject();
    w.kv("value", metric.value);
    w.kv("unit", std::string(metric.unit));
    w.endObject();
  }
  w.endObject();
  w.key("checks_failed").beginArray();
  for (const std::string& failure : checks.failures()) w.value(failure);
  w.endArray();
  w.key("serve_argv").beginArray();
  for (const std::string& arg : serveArgv) w.value(arg);
  w.endArray();
  w.key("setup_runs_s").beginArray();
  for (const double s : setups) w.value(s);
  w.endArray();
  w.kv("timed_wall_s", load.wallSeconds);
  w.kv("host_steal_pct", hostStart && hostEnd ? stealPercent(*hostStart, *hostEnd) : -1.0);
  w.endObject();
  std::cout << out.str() << "\n";
  return checks.passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseOptions(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench_loadgen: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_loadgen: run failed: " << e.what() << "\n";
    return 1;
  }
}
