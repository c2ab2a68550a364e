#include "client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "stats.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using pipesched::net::Endpoint;
using pipesched::net::Socket;

double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The value bytes between `open` and `close` (exclusive), or empty.
std::string_view between(std::string_view text, std::string_view open, std::string_view close) {
  const std::size_t begin = text.find(open);
  if (begin == std::string_view::npos) return {};
  const std::size_t from = begin + open.size();
  const std::size_t end = text.find(close, from);
  if (end == std::string_view::npos) return {};
  return text.substr(from, end - from);
}

/// Incremental HTTP/1.1 response reader (Content-Length bodies only, which
/// is all the server sends). Returns true once a full response is buffered
/// and moves it out of `buffer`.
bool takeResponse(std::string& buffer, HttpReply& reply) {
  const std::size_t headEnd = buffer.find("\r\n\r\n");
  if (headEnd == std::string::npos) return false;
  const std::string_view head(buffer.data(), headEnd);
  std::size_t length = 0;
  std::size_t lineStart = head.find("\r\n");
  while (lineStart != std::string_view::npos && lineStart < head.size()) {
    lineStart += 2;
    const std::size_t lineEnd = std::min(head.find("\r\n", lineStart), head.size());
    const std::string_view line = head.substr(lineStart, lineEnd - lineStart);
    if (line.size() > 15 && strncasecmp(line.data(), "content-length:", 15) == 0) {
      length = std::strtoull(std::string(line.substr(15)).c_str(), nullptr, 10);
    }
    lineStart = lineEnd;
  }
  if (buffer.size() < headEnd + 4 + length) return false;
  reply.status = std::atoi(buffer.c_str() + std::min<std::size_t>(9, headEnd));
  reply.body.assign(buffer, headEnd + 4, length);
  buffer.erase(0, headEnd + 4 + length);
  return true;
}

struct Connection {
  Socket socket;
  std::string in;
  const std::string* out = nullptr;  ///< request bytes being written
  std::size_t written = 0;
  long send = -1;                    ///< index into the sends, -1 when idle
  Clock::time_point freeSince;       ///< when it last became idle
  Clock::time_point dispatchedAt;
};

Socket openConnection(const Endpoint& endpoint) {
  Socket socket = pipesched::net::connectTcp(endpoint, 5000);
  socket.setNonBlocking(true);
  return socket;
}

}  // namespace

std::string renderPost(const std::string& line) {
  std::string body = line;
  body += '\n';
  std::string request = "POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/x-ndjson\r\nContent-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  return request;
}

AnswerDigest digestOutcomeLine(std::string_view line) {
  AnswerDigest digest;
  const std::string_view fingerprint = between(line, "\"fingerprint\":\"", "\"");
  const std::string_view front = between(line, "\"front\":[", "],\"solvers\"");
  digest.healthy = !fingerprint.empty() &&
                   line.find("\"ok\":true") != std::string_view::npos &&
                   line.find("\"degraded\"") == std::string_view::npos &&
                   line.find("\"timed_out\"") == std::string_view::npos;
  std::uint64_t hash = fnv1a(1469598103934665603ull, fingerprint);
  hash = fnv1a(hash, "|");
  digest.hash = fnv1a(hash, front);
  return digest;
}

LoadResult driveLoad(const Endpoint& endpoint, const WorkloadStream& stream,
                     const std::vector<Send>& sends, std::size_t connections,
                     double stallSeconds) {
  // Every request's bytes are rendered before the clock starts.
  std::vector<std::string> rendered(stream.lines.size());
  for (const Send& send : sends) {
    if (rendered[send.key].empty()) rendered[send.key] = renderPost(stream.lines[send.key]);
  }
  std::vector<Connection> conns(connections);
  for (Connection& c : conns) c.socket = openConnection(endpoint);

  LoadResult result;
  result.sends.resize(sends.size());
  const Clock::time_point start = Clock::now();
  for (Connection& c : conns) c.freeSince = start;

  std::size_t next = 0;
  std::size_t done = 0;
  Clock::time_point lastCompletion = start;
  std::vector<pollfd> fds(conns.size());
  HttpReply reply;
  while (done < sends.size()) {
    Clock::time_point now = Clock::now();
    // Every free connection takes the next send.
    for (Connection& c : conns) {
      if (c.send >= 0 || next >= sends.size()) continue;
      c.send = static_cast<long>(next);
      c.out = &rendered[sends[next].key];
      c.written = 0;
      c.dispatchedAt = now;
      ++next;
    }
    // Write as much as the sockets take.
    for (Connection& c : conns) {
      while (c.out != nullptr && c.written < c.out->size()) {
        const auto io = c.socket.write(c.out->data() + c.written, c.out->size() - c.written);
        if (io.error || io.closed) throw std::runtime_error("connection lost while sending");
        if (io.wouldBlock) break;
        c.written += io.bytes;
      }
      if (c.out != nullptr && c.written == c.out->size()) c.out = nullptr;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].socket.fd();
      fds[i].events = static_cast<short>(POLLIN | (conns[i].out != nullptr ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const int ready = ::poll(fds.data(), fds.size(), 1000);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    now = Clock::now();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      char buffer[64 * 1024];
      bool closed = false;
      for (;;) {
        const auto io = c.socket.read(buffer, sizeof buffer);
        if (io.bytes > 0) {
          c.in.append(buffer, io.bytes);
          continue;
        }
        closed = !io.wouldBlock;
        break;
      }
      while (c.send >= 0 && takeResponse(c.in, reply)) {
        const auto index = static_cast<std::size_t>(c.send);
        const RequestTiming timing =
            requestTiming(secondsBetween(start, c.freeSince),
                          secondsBetween(start, c.dispatchedAt), secondsBetween(start, now));
        SendResult& r = result.sends[index];
        r.status = reply.status;
        r.latency = timing.latency;
        r.lateness = timing.lateness;
        r.answer = digestOutcomeLine(reply.body);
        if ((reply.status != 200 || !r.answer.healthy) && result.firstBadBody.empty()) {
          result.firstBadBody = std::to_string(reply.status) + " " + reply.body;
        }
        c.send = -1;
        c.freeSince = now;
        ++done;
        lastCompletion = now;
      }
      if (closed && (c.send >= 0 || next < sends.size())) {
        throw std::runtime_error("server closed a connection");
      }
    }
    if (secondsBetween(lastCompletion, now) > stallSeconds) {
      throw std::runtime_error("no answer for " + std::to_string(stallSeconds) + " s");
    }
  }
  result.wallSeconds = secondsBetween(start, lastCompletion);
  return result;
}

std::optional<HttpReply> httpGet(const Endpoint& endpoint, const std::string& path,
                                 int timeoutMs) {
  try {
    Socket socket = pipesched::net::connectTcp(endpoint, timeoutMs);
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    socket.writeAll(request.data(), request.size());
    socket.setNonBlocking(true);
    std::string in;
    HttpReply reply;
    const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
    while (Clock::now() < deadline) {
      pollfd fd{socket.fd(), POLLIN, 0};
      if (::poll(&fd, 1, 50) < 0 && errno != EINTR) return std::nullopt;
      char buffer[16 * 1024];
      for (;;) {
        const auto io = socket.read(buffer, sizeof buffer);
        if (io.bytes > 0) {
          in.append(buffer, io.bytes);
          continue;
        }
        if (io.wouldBlock) break;
        return takeResponse(in, reply) ? std::optional<HttpReply>(reply) : std::nullopt;
      }
      if (takeResponse(in, reply)) return reply;
    }
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

ServerProcess::ServerProcess(std::string cli, std::vector<std::string> flags,
                             std::string portFile, std::string logFile)
    : cli_(std::move(cli)),
      flags_(std::move(flags)),
      portFile_(std::move(portFile)),
      logFile_(std::move(logFile)) {}

ServerProcess::~ServerProcess() { kill(); }

std::vector<std::string> ServerProcess::argv() const {
  std::vector<std::string> args{cli_, "serve", "--listen", "127.0.0.1:0", "--port-file",
                                portFile_};
  args.insert(args.end(), flags_.begin(), flags_.end());
  return args;
}

Endpoint ServerProcess::start(double timeoutSeconds) {
  std::remove(portFile_.c_str());
  const std::vector<std::string> args = argv();
  std::vector<char*> raw;
  for (const std::string& a : args) raw.push_back(const_cast<char*>(a.c_str()));
  raw.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, logFile_.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = posix_spawn(&pid_, cli_.c_str(), &actions, nullptr, raw.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + cli_ + ": " + std::strerror(rc));
  }

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeoutSeconds));
  const auto alive = [this] {
    int status = 0;
    return ::waitpid(pid_, &status, WNOHANG) == 0;
  };
  // The port file is written once the socket is bound ("HOST PORT\n").
  Endpoint endpoint;
  for (;;) {
    std::ifstream in(portFile_);
    std::string host;
    unsigned port = 0;
    if (in >> host >> port && port != 0) {
      endpoint.host = host;
      endpoint.port = static_cast<std::uint16_t>(port);
      break;
    }
    if (!alive()) {
      pid_ = -1;
      throw std::runtime_error("server exited before binding (see " + logFile_ + ")");
    }
    if (Clock::now() > deadline) throw std::runtime_error("server did not bind in time");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (;;) {
    const auto reply = httpGet(endpoint, "/healthz", 1000);
    if (reply && reply->status == 200) return endpoint;
    if (!alive()) {
      pid_ = -1;
      throw std::runtime_error("server exited before /healthz answered");
    }
    if (Clock::now() > deadline) throw std::runtime_error("/healthz never answered 200");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

ServerProcess::Drain ServerProcess::drain(double timeoutSeconds) {
  Drain result;
  if (pid_ <= 0) return result;
  ::kill(pid_, SIGTERM);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeoutSeconds));
  int status = 0;
  while (Clock::now() < deadline) {
    const pid_t waited = ::waitpid(pid_, &status, WNOHANG);
    if (waited == pid_) {
      pid_ = -1;
      result.exited = true;
      result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill();  // no-op after a clean exit
  struct stat info {};
  result.portFileRemoved = ::stat(portFile_.c_str(), &info) != 0;
  return result;
}

void ServerProcess::kill() noexcept {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

}  // namespace perfbench
