// EpochManager: epoch-pinned copy-on-write state publication (ROADMAP
// item 1; successor to the retired util/rw_gate.h reader-writer gate).
//
// The engine keeps its whole versioned state behind one atomic "current
// version" pointer. Writers never mutate published state: they build the
// next version off to the side (see core::Graphitti::AcquireScratch for
// the cheap way to get one), then call Publish(), which installs it with
// a single pointer swing under the manager's mutex. Readers call
// PinCurrent() on entry and operate on the pinned version for as long as
// the returned Pin lives — across a whole query, a paged result's
// lifetime, or N intervening commits. A pinned version is immutable by
// construction, so readers take no lock while reading and are never
// blocked for the duration of a commit; a long analytic read delays only
// *reclamation* of old versions, never publication of new ones.
//
// Reclamation. Each version records how many pins it holds. When a
// version is superseded and its pin count drains to zero it is either
// destroyed or — for the *most recently* retired version only — parked as
// a "recycle candidate" that the writer can adopt as scratch for the next
// commit. The candidate is always exactly one publish behind current, so
// the writer catches it up by re-applying the one op it published last
// (op-replay standby; see graphitti.cc). Retiring a newer version evicts
// the previous candidate, so at most one parked version exists and memory
// is bounded by {current} + {parked standby} + {versions still pinned by
// live readers}.
//
// Contract notes:
//  - The manager must be owned by a std::shared_ptr (the engine holds it
//    that way). Pins share ownership of the manager, so a Pin held by a
//    long-lived query result keeps its snapshot valid even if the engine
//    is destroyed first.
//  - Pin is copyable (a copy re-pins the same version) and may be
//    destroyed on any thread; destruction may delete the version inline.
//  - Publish/TakeRecyclable/DropRecyclable are writer-side calls; callers
//    serialize them externally (the engine's commit mutex).
#ifndef GRAPHITTI_UTIL_EPOCH_H_
#define GRAPHITTI_UTIL_EPOCH_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/thread_annotations.h"

namespace graphitti {
namespace util {

/// Base class for state snapshots managed by EpochManager. Virtual dtor
/// only: the manager owns versions through this type so layers below
/// core/ (query results pin their snapshot) need not know the concrete
/// engine-state type.
class Versioned {
 public:
  virtual ~Versioned() = default;
};

class EpochManager : public std::enable_shared_from_this<EpochManager> {
  struct Node;

 public:
  EpochManager() = default;
  // Destruction races nothing by contract (the last shared_ptr owner is
  // the only thread left), but the analysis cannot know that; take the
  // lock anyway — it is uncontended and keeps the walk provable.
  ~EpochManager() {
    MutexLock lock(mu_);
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII pin on one published version. Copyable; copies re-pin. Safe to
  /// destroy on a different thread than the one that pinned.
  class Pin {
   public:
    Pin() = default;
    Pin(const Pin& other) : mgr_(other.mgr_), node_(other.node_) {
      if (node_ != nullptr) mgr_->Ref(node_);
    }
    Pin(Pin&& other) noexcept : mgr_(other.mgr_), node_(other.node_) {
      other.mgr_ = nullptr;
      other.node_ = nullptr;
    }
    Pin& operator=(Pin other) noexcept {
      std::swap(mgr_, other.mgr_);
      std::swap(node_, other.node_);
      return *this;
    }
    ~Pin() { reset(); }

    void reset() {
      if (node_ != nullptr) mgr_->Unref(node_);
      mgr_ = nullptr;
      node_ = nullptr;
    }

    explicit operator bool() const { return node_ != nullptr; }
    Versioned* get() const { return node_ != nullptr ? node_->state.get() : nullptr; }
    /// The pinned version's epoch number (diagnostics / test invariants).
    uint64_t epoch() const { return node_ != nullptr ? node_->epoch : 0; }

   private:
    friend class EpochManager;
    Pin(std::shared_ptr<EpochManager> mgr, Node* node)
        : mgr_(std::move(mgr)), node_(node) {}
    std::shared_ptr<EpochManager> mgr_;
    Node* node_ = nullptr;
  };

  /// Pin the currently published version. Never blocks on writers beyond
  /// the manager mutex (a few dozen instructions). The manager must be
  /// shared_ptr-owned (see contract notes).
  Pin PinCurrent() {
    MutexLock lock(mu_);
    assert(current_ != nullptr && "EpochManager: nothing published yet");
    current_->pins++;
    return Pin(shared_from_this(), current_);
  }

  /// Publish `state` as the new current version. Writer-side; externally
  /// serialized. The superseded version becomes the (sole) recycle
  /// candidate once its pins drain; the previous candidate, if any, is
  /// released for deletion.
  void Publish(std::unique_ptr<Versioned> state) {
    Node* dead = nullptr;
    {
      MutexLock lock(mu_);
      Node* node = new Node;
      node->state = std::move(state);
      node->epoch = ++epoch_;
      node->next = nullptr;
      node->prev = tail_;
      if (tail_ != nullptr) tail_->next = node;
      tail_ = node;
      if (head_ == nullptr) head_ = node;
      Node* old = current_;
      current_ = node;
      if (old != nullptr) {
        // The just-superseded version supplants any older candidate.
        if (recycle_candidate_ != nullptr && recycle_candidate_ != old) {
          Node* prev = recycle_candidate_;
          prev->recyclable = false;
          if (prev->pins == 0) dead = Detach(prev);
        }
        old->recyclable = true;
        recycle_candidate_ = old;
      }
    }
    delete dead;
  }

  /// Writer-side: if the most recently retired version has drained (no
  /// pins), detach and return it for reuse as commit scratch. Returns
  /// nullptr when no drained candidate exists (a long reader still pins
  /// it, or it was already taken/dropped).
  std::unique_ptr<Versioned> TakeRecyclable() {
    Node* taken = nullptr;
    {
      MutexLock lock(mu_);
      Node* cand = recycle_candidate_;
      if (cand == nullptr || cand->pins != 0) return nullptr;
      recycle_candidate_ = nullptr;
      taken = Detach(cand);
    }
    std::unique_ptr<Versioned> state = std::move(taken->state);
    delete taken;
    return state;
  }

  /// Drop the recycle candidate (the last publish recorded no replayable
  /// op, so it can never be caught up). It is deleted now if drained, or
  /// when its last pin drops.
  void DropRecyclable() {
    Node* dead = nullptr;
    {
      MutexLock lock(mu_);
      Node* cand = recycle_candidate_;
      recycle_candidate_ = nullptr;
      if (cand != nullptr) {
        cand->recyclable = false;
        if (cand->pins == 0) dead = Detach(cand);
      }
    }
    delete dead;
  }

  /// The current version without pinning — writer-side only (the commit
  /// mutex holder is the only thread for which this cannot be superseded
  /// concurrently), or single-threaded use.
  Versioned* Current() {
    MutexLock lock(mu_);
    return current_ != nullptr ? current_->state.get() : nullptr;
  }

  /// Number of versions alive (current + pinned stragglers + parked
  /// standby). Test/diagnostic surface for the reclamation invariants.
  size_t live_versions() {
    MutexLock lock(mu_);
    size_t n = 0;
    for (Node* node = head_; node != nullptr; node = node->next) n++;
    return n;
  }

  uint64_t current_epoch() {
    MutexLock lock(mu_);
    return epoch_;
  }

 private:
  // Every mutable Node field (pins, recyclable, prev/next links) is
  // guarded by the owning manager's mu_; that relation is not expressible
  // as a GUARDED_BY on the inner struct (a Node cannot name its manager),
  // so it is enforced one level up: every function that touches a Node
  // either holds mu_ inline or carries REQUIRES(mu_). `state` and `epoch`
  // are written once before the node is published and immutable after —
  // Pin::get()/epoch() read them lock-free by design.
  struct Node {
    std::unique_ptr<Versioned> state;
    uint64_t epoch = 0;
    size_t pins = 0;
    bool recyclable = false;
    Node* prev = nullptr;
    Node* next = nullptr;
  };

  void Ref(Node* node) {
    MutexLock lock(mu_);
    node->pins++;
  }

  void Unref(Node* node) {
    Node* dead = nullptr;
    {
      MutexLock lock(mu_);
      assert(node->pins > 0);
      node->pins--;
      // Reclaim on drain: superseded, not parked for recycling, no pins.
      if (node->pins == 0 && node != current_ && !node->recyclable) {
        dead = Detach(node);
      }
    }
    delete dead;
  }

  /// Unlink from the version list. Caller holds mu_ and deletes outside it
  /// (version destructors can be heavy — whole engine states).
  Node* Detach(Node* node) REQUIRES(mu_) {
    if (node->prev != nullptr) node->prev->next = node->next;
    if (node->next != nullptr) node->next->prev = node->prev;
    if (head_ == node) head_ = node->next;
    if (tail_ == node) tail_ = node->prev;
    node->prev = nullptr;
    node->next = nullptr;
    return node;
  }

  Mutex mu_;
  Node* head_ GUARDED_BY(mu_) = nullptr;  // oldest
  Node* tail_ GUARDED_BY(mu_) = nullptr;  // newest
  Node* current_ GUARDED_BY(mu_) = nullptr;
  Node* recycle_candidate_ GUARDED_BY(mu_) = nullptr;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
};

using EpochPin = EpochManager::Pin;

}  // namespace util
}  // namespace graphitti

#endif  // GRAPHITTI_UTIL_EPOCH_H_
