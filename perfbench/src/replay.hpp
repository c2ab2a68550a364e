// In-process replays of a workload's request stream through the library's
// public layer functions — the expected answers of the output check, and
// the traced run behind the per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Expected answer of every distinct line of the stream, solved on
/// `threads` threads with the server's default service configuration.
/// Lines of one instance stay on one thread, in stream order, so refined
/// sweeps reuse sub-results as they do in the server. Fronts do not depend
/// on cache state, so the split cannot change an answer.
[[nodiscard]] std::vector<AnswerDigest> checkReplay(const WorkloadStream& stream,
                                                    std::size_t threads);

/// One recorded span: a timed call into a layer.
struct Span {
  std::uint16_t name = 0;  ///< index into LayerReport::spanNames
  std::uint32_t request = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  double start = 0;          ///< seconds on the replay's clock
  double end = 0;
};

struct LayerReport {
  std::vector<AnswerDigest> timedAnswers;  ///< parallel to stream.timed
  std::vector<AnswerDigest> primeAnswers;  ///< parallel to stream.prime
  std::vector<Span> spans;
  std::vector<std::string> spanNames;

  // Counts over the timed sends.
  std::size_t timedCount = 0;
  std::size_t hits = 0;
  std::size_t portfolioCalls = 0;
  std::size_t exactUsed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t unitsWanted = 0;
  std::uint64_t unitsReused = 0;
  double mergeSeconds = 0;
  std::map<std::string, double> memberSeconds;  ///< by member span name

  /// Per-layer metrics by name (see BENCHMARK.json "per_layer"), filled by
  /// summarizeLayers and streamPass.
  std::map<std::string, double> metrics;
};

/// Serial replay: the prime sends (unrecorded), then every timed send, each
/// through net::HttpParser, stream::JsonlSource, service::requestIdentity,
/// SchedulingService::solve, the outcome renderer and
/// net::renderHttpResponse — the calls the server makes for one POST — with
/// a span (name, start, end, parent, request id) around each call, kept in
/// memory. The solve span's children (cache lookup, portfolio, each member,
/// merge) come from the RequestTrace the service fills in.
[[nodiscard]] LayerReport layerReplay(const WorkloadStream& stream);

/// Cost of the spans: the first `limit` timed sends replayed through two
/// primed copies of the layers in lockstep, one recording spans and one
/// not, alternating which goes first; the geometric mean of the per-request
/// time ratios, as percent extra time with spans on.
[[nodiscard]] double tracingOverheadPercent(const WorkloadStream& stream, std::size_t limit);

/// Span-derived metrics of a traced replay: percentiles of each layer
/// call, per-request member times, ratios, and the self time by layer
/// (a span's duration minus what its children cover).
void summarizeLayers(LayerReport& report);

/// Second pass through stream::AsyncScheduler with 2 workers, with as many
/// requests outstanding as the workload has connections. Adds stream.queue_wait_ms_p50,
/// stream.queue_wait_ms_p99, stream.coalesced_ratio and the stream share
/// to `report`.
void streamPass(const WorkloadStream& stream, LayerReport& report);

/// Writes the spans as JSON lines (name, request, parent, start_us, end_us).
void writeSpans(const LayerReport& report, const std::string& path);

}  // namespace perfbench
