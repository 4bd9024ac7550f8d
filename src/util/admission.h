// AdmissionController: engine-level load shedding. Bounds how many reads
// and commits run concurrently, with a bounded wait queue per class — a
// request past both bounds is rejected immediately, and a queued request
// that cannot get a slot within the queue timeout is rejected with
// kResourceExhausted rather than waiting unboundedly. This is the
// backpressure substrate the planned multi-tenant server front door
// needs: shedding happens at the engine boundary, before any snapshot is
// pinned or scratch allocated.
//
// The timed wait uses CondVar::WaitFor in an explicit while-loop keyed to
// an absolute deadline, so a spurious wakeup or a signal racing the
// timeout resolves by re-checking the slot predicate: a waiter that is
// signalled with a free slot before its deadline always wins the slot,
// even if the clock has meanwhile passed the deadline check it would have
// failed (slot availability is re-read before the time is).
//
// Locking: one mutex guards both classes' slot/waiter counts (admission
// events are rare relative to the work they admit). Counters are atomics
// so Graphitti::Health() can snapshot them without taking this lock.
#ifndef GRAPHITTI_UTIL_ADMISSION_H_
#define GRAPHITTI_UTIL_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace graphitti {
namespace util {

struct AdmissionOptions {
  /// Concurrent in-flight limit per class; 0 = unlimited (class unmanaged).
  size_t max_concurrent_reads = 0;
  size_t max_concurrent_commits = 0;
  /// Requests allowed to wait for a slot, per class, beyond the in-flight
  /// limit. A request arriving with the queue full is rejected at once.
  size_t max_queued = 16;
  /// How long a queued request may wait before rejection.
  std::chrono::milliseconds queue_timeout{100};
};

/// Point-in-time admission statistics (all-time totals).
struct AdmissionCounters {
  uint64_t admitted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_timeout = 0;
};

class AdmissionController {
 public:
  enum class WorkClass { kRead, kCommit };

  explicit AdmissionController(const AdmissionOptions& options)
      : options_(options) {}
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII admission slot. A default-constructed (or moved-from) ticket
  /// holds nothing. Destruction releases the slot and wakes one waiter.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept
        : ctrl_(other.ctrl_), work_class_(other.work_class_) {
      other.ctrl_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        ctrl_ = other.ctrl_;
        work_class_ = other.work_class_;
        other.ctrl_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    void Release() {
      if (ctrl_ != nullptr) {
        ctrl_->ReleaseSlot(work_class_);
        ctrl_ = nullptr;
      }
    }

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* ctrl, WorkClass wc)
        : ctrl_(ctrl), work_class_(wc) {}
    AdmissionController* ctrl_ = nullptr;
    WorkClass work_class_ = WorkClass::kRead;
  };

  /// Acquire a slot for `work_class`, waiting up to the queue timeout if
  /// the class is saturated but the queue has room. On success `*ticket`
  /// holds the slot; on kResourceExhausted nothing is held.
  Status Admit(WorkClass work_class, Ticket* ticket) {
    const size_t limit = LimitFor(work_class);
    if (limit == 0) {
      // Unmanaged class: hand out an empty ticket, count nothing.
      *ticket = Ticket();
      return Status::OK();
    }
    MutexLock lock(mu_);
    ClassState& cs = StateFor(work_class);
    if (cs.active < limit) {
      cs.active++;
      counters_.admitted.fetch_add(1, std::memory_order_relaxed);
      *ticket = Ticket(this, work_class);
      return Status::OK();
    }
    if (cs.waiting >= options_.max_queued) {
      counters_.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "admission queue full: " + ClassName(work_class) + " concurrency " +
          std::to_string(limit) + " reached with " +
          std::to_string(cs.waiting) + " already queued");
    }
    cs.waiting++;
    const auto deadline = std::chrono::steady_clock::now() + options_.queue_timeout;
    // Explicit predicate loop: a signal that frees a slot beats a deadline
    // that has technically passed, because the slot check comes first.
    while (cs.active >= limit) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        cs.waiting--;
        counters_.rejected_timeout.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(
            "admission timed out: no " + ClassName(work_class) +
            " slot freed within " +
            std::to_string(options_.queue_timeout.count()) + "ms");
      }
      cs.cv.WaitFor(mu_, deadline - now);
    }
    cs.waiting--;
    cs.active++;
    counters_.admitted.fetch_add(1, std::memory_order_relaxed);
    *ticket = Ticket(this, work_class);
    return Status::OK();
  }

  /// Lock-free counter snapshot (totals are monotonic; a racing admit may
  /// or may not be included — fine for health reporting).
  AdmissionCounters Counters() const {
    AdmissionCounters c;
    c.admitted = counters_.admitted.load(std::memory_order_relaxed);
    c.rejected_queue_full =
        counters_.rejected_queue_full.load(std::memory_order_relaxed);
    c.rejected_timeout =
        counters_.rejected_timeout.load(std::memory_order_relaxed);
    return c;
  }

  const AdmissionOptions& options() const { return options_; }

 private:
  struct ClassState {
    size_t active = 0;   // guarded by the owning controller's mu_
    size_t waiting = 0;  // guarded by the owning controller's mu_
    CondVar cv;
  };

  size_t LimitFor(WorkClass wc) const {
    return wc == WorkClass::kRead ? options_.max_concurrent_reads
                                  : options_.max_concurrent_commits;
  }
  ClassState& StateFor(WorkClass wc) REQUIRES(mu_) {
    return wc == WorkClass::kRead ? reads_ : commits_;
  }
  static std::string ClassName(WorkClass wc) {
    return wc == WorkClass::kRead ? "read" : "commit";
  }

  void ReleaseSlot(WorkClass wc) {
    MutexLock lock(mu_);
    ClassState& cs = StateFor(wc);
    cs.active--;
    cs.cv.NotifyOne();
  }

  const AdmissionOptions options_;
  Mutex mu_;
  // ClassState's counts are guarded by mu_ (an inner struct cannot name
  // its owner in a GUARDED_BY — same pattern as EpochManager::Node); both
  // members are only touched under mu_.
  ClassState reads_ GUARDED_BY(mu_);
  ClassState commits_ GUARDED_BY(mu_);

  struct {
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> rejected_queue_full{0};
    std::atomic<uint64_t> rejected_timeout{0};
  } counters_;
};

}  // namespace util
}  // namespace graphitti

#endif  // GRAPHITTI_UTIL_ADMISSION_H_
