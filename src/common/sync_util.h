// Small synchronization helpers shared across the stack: a spinlock for
// nanosecond-scale critical sections (NIC queues), a blocking MPMC queue, and
// a countdown latch for test/bench thread coordination.
#ifndef SRC_COMMON_SYNC_UTIL_H_
#define SRC_COMMON_SYNC_UTIL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace lt {

class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// Blocking multi-producer multi-consumer FIFO. Pop() blocks until an element
// arrives or Close() is called (then returns nullopt). TryPop never blocks.
template <typename T>
class BlockingQueue {
 public:
  void Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  template <typename Rep, typename Period>
  std::optional<T> PopFor(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, timeout, [this] { return !items_.empty() || closed_; })) {
      return std::nullopt;
    }
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

class CountDownLatch {
 public:
  explicit CountDownLatch(int count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ > 0 && --count_ == 0) {
      cv_.notify_all();
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

}  // namespace lt

#endif  // SRC_COMMON_SYNC_UTIL_H_
