// The load generator's wire side: a single-threaded HTTP/1.1 client that
// multiplexes keep-alive connections with poll(2), and the lifecycle of the
// `pipesched serve --listen` process it drives.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipesched/net/socket.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Identity of one answer: a hash over the outcome line's fingerprint and
/// front, the two fields the output check compares. `healthy` is false for
/// error, timed_out and degraded outcomes.
struct AnswerDigest {
  std::uint64_t hash = 0;
  bool healthy = false;
};

[[nodiscard]] AnswerDigest digestOutcomeLine(std::string_view line);

/// The full HTTP request that POSTs one JSONL request line to /solve.
[[nodiscard]] std::string renderPost(const std::string& line);

struct SendResult {
  int status = 0;  ///< HTTP status; 0 when the connection failed
  double latency = 0;
  double lateness = 0;
  AnswerDigest answer;
};

struct LoadResult {
  std::vector<SendResult> sends;  ///< parallel to the sends driven
  double wallSeconds = 0;         ///< first dispatch to last completion
  std::string firstBadBody;       ///< first unhealthy response, for the report
};

/// Drives `sends` against the server in a closed loop: each of
/// `connections` keep-alive connections sends the next request as soon as
/// its previous answer arrived. Throws std::runtime_error when a connection
/// fails or no answer arrives within `stallSeconds`.
[[nodiscard]] LoadResult driveLoad(const pipesched::net::Endpoint& endpoint,
                                   const WorkloadStream& stream,
                                   const std::vector<Send>& sends, std::size_t connections,
                                   double stallSeconds = 60);

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One blocking GET on a fresh connection; nullopt on any failure.
[[nodiscard]] std::optional<HttpReply> httpGet(const pipesched::net::Endpoint& endpoint,
                                               const std::string& path, int timeoutMs = 5000);

/// `pipesched serve --listen 127.0.0.1:0 --port-file F ...` as a child
/// process: spawned on an ephemeral port, ready once /healthz answers 200,
/// drained with SIGTERM. The destructor kills a server that was not drained.
class ServerProcess {
 public:
  ServerProcess(std::string cli, std::vector<std::string> flags, std::string portFile,
                std::string logFile);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns, waits for the port file and a 200 from /healthz. Throws
  /// std::runtime_error when the server dies or is not ready in time.
  pipesched::net::Endpoint start(double timeoutSeconds = 30);

  struct Drain {
    bool exited = false;          ///< exited on its own after SIGTERM
    int exitCode = -1;            ///< exit status, or -1 when killed/signalled
    bool portFileRemoved = false;
    [[nodiscard]] bool clean() const { return exited && exitCode == 0 && portFileRemoved; }
  };

  /// SIGTERM, then waits up to `timeoutSeconds` for the exit.
  Drain drain(double timeoutSeconds = 20);

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// The argument vector the server was started with (run metadata).
  [[nodiscard]] std::vector<std::string> argv() const;

 private:
  void kill() noexcept;

  std::string cli_;
  std::vector<std::string> flags_;
  std::string portFile_;
  std::string logFile_;
  pid_t pid_ = -1;
};

}  // namespace perfbench
