// Resource-governance primitives: Deadline and CancellationToken.
//
// Both are cheap value types designed to be copied into ExecutorOptions /
// ConnectOptions and checked cooperatively inside the engine's expensive
// loops (candidate streaming, join extension, BFS ring expansion, snapshot
// hydration). The default-constructed forms are "ungoverned": an infinite
// Deadline and a token that can never fire — checking them costs one
// branch, so plumbing them unconditionally through hot paths is safe.
//
// Check amortization: a steady_clock read — or even a shared-flag atomic
// load — per loop iteration would be measurable on the cheapest loops, so
// call sites batch via GovernanceGate::Check: the cancellation flag is read
// every kCancelStride iterations and the clock every kCheckStride. The
// common-case cost per iteration is one counter increment and mask.
//
// Thread-safety: Deadline is immutable after construction. A
// CancellationToken shares one atomic flag between all copies;
// RequestCancel/Reset/cancelled are safe from any thread.
#ifndef GRAPHITTI_UTIL_GOVERNANCE_H_
#define GRAPHITTI_UTIL_GOVERNANCE_H_

#include <atomic>
#include <chrono>
#include <memory>

#include "util/status.h"

namespace graphitti {
namespace util {

/// A wall-clock budget expressed as a steady_clock time point. The default
/// Deadline is infinite (never expires).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// A deadline `d` from now.
  template <typename Rep, typename Period>
  static Deadline After(std::chrono::duration<Rep, Period> d) {
    Deadline dl;
    dl.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(d);
    dl.finite_ = true;
    return dl;
  }

  /// Never expires.
  static Deadline Infinite() { return Deadline(); }

  bool finite() const { return finite_; }
  bool expired() const { return finite_ && Clock::now() >= at_; }

  /// Time left; Clock::duration::max() when infinite, zero when expired.
  Clock::duration remaining() const {
    if (!finite_) return Clock::duration::max();
    Clock::time_point now = Clock::now();
    return now >= at_ ? Clock::duration::zero() : at_ - now;
  }

 private:
  Clock::time_point at_{};
  bool finite_ = false;
};

/// A shared cancellation flag. Default-constructed tokens are inert (can
/// never fire); Create() makes a real one. Copies observe the same flag.
class CancellationToken {
 public:
  CancellationToken() = default;

  static CancellationToken Create() {
    CancellationToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  bool can_fire() const { return flag_ != nullptr; }
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }
  void RequestCancel() const {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
  }
  /// Clears the flag so the token can be reused (e.g. retry a hydration
  /// that was cancelled mid-restore).
  void Reset() const {
    if (flag_ != nullptr) flag_->store(false, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Helper that amortizes deadline clock reads over loop iterations. Not
/// thread-safe: one gate per thread. Construct it outside the loops it
/// serves and call Check() each iteration.
class GovernanceGate {
 public:
  static constexpr uint32_t kCancelStride = 64;
  static constexpr uint32_t kCheckStride = 1024;

  GovernanceGate(const Deadline& deadline, const CancellationToken& cancel)
      : deadline_(deadline), cancel_(cancel) {}

  /// OK, or the governance status that should abort the loop. Fully
  /// amortized: the cancellation flag is read every kCancelStride calls,
  /// the clock every kCheckStride (kCancelStride divides kCheckStride, so
  /// the nested mask below is exact). Worst-case detection latency is one
  /// stride of loop iterations — microseconds on the loops this guards.
  /// Callers that need iteration-zero detection (pre-expired deadline,
  /// pre-cancelled token) must run one CheckNow() before the loop.
  Status Check() {
    if ((++tick_ & (kCancelStride - 1)) != 0) return Status::OK();
    if (cancel_.cancelled()) return Status::Cancelled("query cancelled");
    if (deadline_.finite() && (tick_ & (kCheckStride - 1)) == 0 &&
        deadline_.expired()) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  /// Unamortized check (for coarse loops where each iteration is already
  /// expensive — BFS rings, page materialization, hydration batches).
  Status CheckNow() const {
    if (cancel_.cancelled()) return Status::Cancelled("query cancelled");
    if (deadline_.expired()) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  Deadline deadline_;
  CancellationToken cancel_;
  uint32_t tick_ = 0;
};

}  // namespace util
}  // namespace graphitti

#endif  // GRAPHITTI_UTIL_GOVERNANCE_H_
