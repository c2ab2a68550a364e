// Bounded multi-producer/multi-consumer channel — the backpressure seam of
// the streaming engine.
//
// Producers block in push() while the channel is full (each blocked episode
// is counted: ChannelStats::pushWaits is the engine's backpressure signal);
// consumers block in pop() while it is empty. close() stops admission:
// blocked and subsequent pushes return false, pops drain what was accepted
// and then return nullopt. All operations are safe to call from any number
// of threads concurrently.
//
// It is the one bounded queue of the code base: the skeleton executor
// (runtime::executeMapping) buffers its inter-stage tokens in it too. It
// never throws on the close race (a server shutting down must not turn
// in-flight submits into crashes), supports non-blocking try variants, and
// keeps the occupancy/wait counters the stream benchmarks and tests observe.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "pipesched/core/types.hpp"

namespace pipesched::stream {

/// Counters accumulated over the channel's lifetime (monotone; read at any
/// time, coherent as a snapshot).
struct ChannelStats {
  std::uint64_t pushed = 0;     ///< values accepted by push()/tryPush()
  std::uint64_t popped = 0;     ///< values handed out by pop()/tryPop()
  std::uint64_t pushWaits = 0;  ///< push() episodes that blocked on a full channel
  std::uint64_t popWaits = 0;   ///< pop() episodes that blocked on an empty channel
  std::size_t highWater = 0;    ///< maximum occupancy ever reached
};

template <typename T>
class BoundedChannel {
 public:
  explicit BoundedChannel(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) throw ModelError("BoundedChannel: capacity must be >= 1");
  }

  BoundedChannel(const BoundedChannel&) = delete;
  BoundedChannel& operator=(const BoundedChannel&) = delete;

  /// Blocks while full. Returns true when `value` was accepted; false when
  /// the channel was (or became, while blocked) closed — `value` is consumed
  /// either way.
  bool push(T value) {
    std::unique_lock lock(mutex_);
    if (items_.size() >= capacity_ && !closed_) {
      ++stats_.pushWaits;
      notFull_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(value));
    ++stats_.pushed;
    stats_.highWater = std::max(stats_.highWater, items_.size());
    notEmpty_.notify_one();
    return true;
  }

  /// Non-blocking push: false (value left untouched) when full or closed.
  bool tryPush(T& value) {
    std::lock_guard lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    ++stats_.pushed;
    stats_.highWater = std::max(stats_.highWater, items_.size());
    notEmpty_.notify_one();
    return true;
  }

  /// Blocks while empty; nullopt once the channel is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    if (items_.empty() && !closed_) {
      ++stats_.popWaits;
      notEmpty_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    if (items_.empty()) return std::nullopt;
    return takeFront();
  }

  /// Non-blocking pop: nullopt when currently empty (closed or not).
  std::optional<T> tryPop() {
    std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    return takeFront();
  }

  /// Stops admission and wakes every waiter. Idempotent. Values already
  /// accepted remain poppable.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    notEmpty_.notify_all();
    notFull_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] ChannelStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  // Caller holds mutex_ and guarantees non-empty.
  T takeFront() {
    T value = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    notFull_.notify_one();
    return value;
  }

  mutable std::mutex mutex_;
  std::condition_variable notEmpty_;
  std::condition_variable notFull_;
  std::deque<T> items_;
  ChannelStats stats_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace pipesched::stream
