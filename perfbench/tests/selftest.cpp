// Self-test of the benchmark's own machinery: deterministic request
// streams, percentile selection, the timed CPU window, and the load
// generator's latency/lateness accounting (against a slow in-process HTTP
// responder).
// Runs every check and exits non-zero when any failed.
#include <signal.h>
#include <time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "pipesched/net/http.hpp"
#include "pipesched/net/socket.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL: " << what << "\n";
}

void sameSeedSameStreamDifferentSeedDifferentStream() {
  for (const Workload w : {Workload::kColdPaper, Workload::kSweepRefine}) {
    const std::string a = serializeStream(makeStream(w, 7, 1));
    const std::string b = serializeStream(makeStream(w, 7, 1));
    const std::string c = serializeStream(makeStream(w, 8, 1));
    const std::string name = workloadName(w);
    check(!a.empty() && a == b, name + ": the same seed must give a byte-identical stream");
    check(a != c, name + ": a different seed must give a different stream");
    const WorkloadStream s = makeStream(w, 7, 1);
    check(s.timed.size() == timedCount(w, 1), name + ": fixed timed request count");
    check(s.timed.size() >= 1000, name + ": enough timed requests for a p99");
    const WorkloadStream other = makeStream(w, 8, 1);
    bool samePrime = !s.prime.empty() && s.prime.size() == other.prime.size();
    for (std::size_t i = 0; samePrime && i < s.prime.size(); ++i) {
      samePrime = s.lines[s.prime[i].key] == other.lines[other.prime[i].key];
    }
    check(samePrime, name + ": the priming batch is the same for every seed");
  }
  // sweep_refine: about 10% of the sends are retries of the send before.
  const WorkloadStream s = makeStream(Workload::kSweepRefine, 7, 1);
  std::size_t retries = 0;
  for (std::size_t i = 0; i < s.timed.size(); ++i) {
    if (!s.timed[i].retry) continue;
    ++retries;
    check(i > 0 && s.timed[i].key == s.timed[i - 1].key, "a retry repeats its send");
  }
  const double share = static_cast<double>(retries) / static_cast<double>(s.timed.size());
  check(share > 0.07 && share < 0.13, "sweep_refine: about 10% retries");
}

void percentileNeedsTenSamplesBeyond() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  check(!percentile(v, 0.99).has_value(), "p99 of 999 samples (9 beyond) is refused");
  v.push_back(1000);
  const auto p99 = percentile(v, 0.99);
  check(p99.has_value() && *p99 == 990, "p99 of 1..1000 is 990, with 10 samples beyond");
  check(percentile(v, 0.5).value_or(0) == 500, "p50 of 1..1000 is 500");
  std::vector<double> small(19, 1.0);
  check(!percentile(small, 0.5).has_value(), "p50 of 19 samples (9 beyond) is refused");
  small.push_back(1.0);
  check(percentile(small, 0.5).has_value(), "p50 of 20 samples is reported");
  check(!percentile({}, 0.5).has_value(), "no percentile of an empty sample");
  check(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
}

void latencyAndLatenessAreSeparated() {
  // Connection free at 1.0 s, request written at 1.002 s, answered at
  // 1.1 s: the client saw 98 ms, the generator took 2 ms to turn around.
  const RequestTiming t = requestTiming(1.0, 1.002, 1.1);
  check(std::abs(t.latency - 0.098) < 1e-9, "latency runs from dispatch to answer");
  check(std::abs(t.lateness - 0.002) < 1e-9, "lateness is the generator's turnaround");
}

/// A one-connection HTTP responder that answers every POST after `delay`.
void slowResponder(pipesched::net::TcpListener& listener, std::chrono::milliseconds delay,
                   int requests) {
  std::optional<pipesched::net::Socket> conn;
  while (!(conn = listener.accept())) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  conn->setNonBlocking(false);
  pipesched::net::HttpParser parser;
  char buffer[4096];
  for (int served = 0; served < requests;) {
    if (parser.status() != pipesched::net::HttpParser::Status::kComplete) {
      const auto io = conn->read(buffer, sizeof buffer);
      if (io.bytes == 0) return;
      parser.consume(buffer, io.bytes);
      continue;
    }
    std::this_thread::sleep_for(delay);
    const std::string body =
        "{\"fingerprint\":\"ab\",\"ok\":true,\"front\":[],\"solvers\":[]}\n";
    const std::string response =
        pipesched::net::renderHttpResponse(200, "application/x-ndjson", body, true);
    conn->writeAll(response.data(), response.size());
    ++served;
    parser.reset();
  }
}

void loadGeneratorTimesEveryAnswerOfASlowServer() {
  pipesched::net::TcpListener listener;
  listener.listen(pipesched::net::Endpoint{"127.0.0.1", 0});
  std::thread responder(slowResponder, std::ref(listener), std::chrono::milliseconds(60), 3);
  WorkloadStream stream;
  stream.lines = {"{\"text\":\"a\"}", "{\"text\":\"b\"}"};
  stream.instanceOf = {0, 1};
  const std::vector<Send> sends{Send{0}, Send{1}, Send{0}};
  const LoadResult r = driveLoad(listener.local(), stream, sends, 1, 10);
  responder.join();
  for (const SendResult& s : r.sends) {
    check(s.status == 200 && s.answer.healthy, "slow responder answered OK");
    check(s.latency >= 0.06 && s.latency < 0.5, "latency covers the server's 60 ms");
    check(s.lateness < 0.02, "the server's time is not generator lateness");
  }
  check(r.wallSeconds >= 0.18, "three serial answers take at least 180 ms");
}

void cpuIsCountedOverTheTimedWindowOnly() {
  const std::string stat =
      "4242 (serve (x) y) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
  check(parseProcStatCpuTicks(stat).value_or(0) == 300, "utime + stime after the last ')'");

  // A child burns 400 ms of CPU, reports it is done, then sleeps. A window
  // taken during the sleep sees none of the earlier burn.
  int done[2];
  check(::pipe(done) == 0, "pipe");
  const pid_t child = ::fork();
  if (child == 0) {
    timespec used{};
    volatile double sink = 0;
    do {
      for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
      ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &used);
    } while (used.tv_sec == 0 && used.tv_nsec < 400'000'000);
    const char byte = 1;
    (void)!::write(done[1], &byte, 1);
    ::pause();
    ::_exit(0);
  }
  char byte = 0;
  (void)!::read(done[0], &byte, 1);
  ::close(done[0]);
  ::close(done[1]);
  const auto start = processCpuTicks(child);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto end = processCpuTicks(child);
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  check(start.has_value() && end.has_value(), "reads /proc/<pid>/stat");
  check(cpuMsInWindow(*start, *start) == 0, "an empty window holds no CPU time");
  check(cpuMsInWindow(0, *start) >= 300, "the burn before the window is visible in total");
  check(cpuMsInWindow(*start, *end) < 30, "the burn before the window is not counted in it");
  check(processPeakRssMb(::getpid()).value_or(0) > 0, "reads VmHWM");
}

}  // namespace

int main() {
  sameSeedSameStreamDifferentSeedDifferentStream();
  percentileNeedsTenSamplesBeyond();
  latencyAndLatenessAreSeparated();
  loadGeneratorTimesEveryAnswerOfASlowServer();
  cpuIsCountedOverTheTimedWindowOnly();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test passed\n";
  return 0;
}
