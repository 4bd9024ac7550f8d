// Epoch-stamped scratch structures, a flat 64-bit key set and sorted-list
// intersection for the zero-allocation traversal, search and collation hot
// paths.
//
// The traversal core works over dense node indexes. Instead of allocating
// (and zeroing) O(V) visited/parent/depth arrays per query, each structure
// here keeps its arrays alive across calls and invalidates them in O(1) by
// bumping a 64-bit generation counter: an entry is live only when its stamp
// equals the current epoch. Arrays grow monotonically to the largest graph
// seen by the owning thread and are never shrunk.
//
// Discipline: a TraversalScratch is single-threaded and non-reentrant — a
// routine holding one of its sub-structures across a call into another
// routine that Begin()s the same sub-structure reads stale stamps. Callers
// (the a-graph) keep one scratch per thread and never nest users of the
// same member.
#ifndef GRAPHITTI_UTIL_DENSE_SET_H_
#define GRAPHITTI_UTIL_DENSE_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace graphitti {
namespace util {

/// splitmix64 finalizer: a full-avalanche 64-bit mix. Used to turn trivially
/// colliding keys (e.g. `id * 4 + kind`) into well-distributed hashes.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Set of dense ids [0, n) with O(1) amortized clear via epoch stamping.
class EpochVisitSet {
 public:
  /// Starts a new generation over ids [0, n). No clearing: stamps from
  /// earlier generations (or other graphs sharing the scratch) never match.
  void Begin(size_t n) {
    if (stamps_.size() < n) stamps_.resize(n, 0);
    ++epoch_;
  }

  bool Contains(uint32_t i) const { return stamps_[i] == epoch_; }

  /// Returns true when `i` was not yet a member this generation.
  bool Insert(uint32_t i) {
    if (stamps_[i] == epoch_) return false;
    stamps_[i] = epoch_;
    return true;
  }

  /// Removes `i` from the current generation (epoch_ >= 1 after Begin).
  void Erase(uint32_t i) { stamps_[i] = 0; }

 private:
  std::vector<uint64_t> stamps_;
  uint64_t epoch_ = 0;  // 64-bit: never wraps in practice
};

/// Set of 64-bit keys in one flat table: power-of-two size, linear probing,
/// growth at half load. Keys are expected to be hashes already (NodeRefHash,
/// a row hash), so a key's slot is its low bits with no further mixing.
/// Slot value 0 marks an empty slot; the key 0 itself is kept in a flag.
class KeySet {
 public:
  /// Returns true when `key` was not yet a member.
  bool Insert(uint64_t key) {
    if (key == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      return true;
    }
    if (2 * (stored_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = key & mask;; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == 0) {
        slots_[i] = key;
        ++stored_;
        return true;
      }
    }
  }

  size_t size() const { return stored_ + (has_zero_ ? 1 : 0); }

  /// Sizes an empty set once so that `n` keys fit without growth (a
  /// no-op on a set that already holds keys).
  void Reserve(size_t n) {
    size_t slots = 16;
    while (slots < 2 * n) slots *= 2;
    if (stored_ == 0 && slots > slots_.size()) slots_.assign(slots, 0);
  }

 private:
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), 0);
    const size_t mask = slots_.size() - 1;
    for (uint64_t key : old) {
      if (key == 0) continue;
      size_t i = key & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;
  size_t stored_ = 0;  // nonzero keys in slots_
  bool has_zero_ = false;
};

/// Membership bitset over interned edge-label ids; replaces linear
/// std::find over allowed_labels in the traversal inner loop.
class LabelBitset {
 public:
  void Reset(size_t num_labels) { words_.assign((num_labels + 63) / 64, 0); }
  void Set(uint32_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Test(uint32_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

 private:
  std::vector<uint64_t> words_;
};

/// Per-node BFS bookkeeping with the visited epoch folded into the record:
/// one edge relaxation touches a single 24-byte record instead of a
/// separate stamp array plus parallel parent/label/distance arrays. The
/// traversal inner loops are memory-bound (random node-indexed accesses),
/// so halving the touched cache lines per relaxation is load-bearing, not
/// cosmetic.
struct BfsNode {
  uint64_t stamp = 0;     // generation that visited this node (see BfsSide)
  uint32_t parent = 0;    // dense index of the BFS predecessor
  uint32_t dist = 0;      // hops from the nearest seed
  uint32_t parent_label = 0;   // interned label of the tree edge
  uint8_t parent_forward = 0;  // true: edge stored parent->node (forward
                               // side) / node->parent (backward side)
};

/// One direction of a (possibly bidirectional) BFS. A node's record is live
/// only when its stamp equals the side's current epoch, so Prepare is O(1)
/// and records never need clearing.
struct BfsSide {
  std::vector<BfsNode> nodes;
  uint64_t epoch = 0;  // 64-bit: never wraps in practice
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> next;

  void Prepare(size_t n) {
    if (nodes.size() < n) nodes.resize(n);  // fresh records carry stamp 0
    ++epoch;
    frontier.clear();
    next.clear();
  }

  bool Visited(uint32_t i) const { return nodes[i].stamp == epoch; }

  /// Seeds a BFS root (its own parent, distance 0).
  void Seed(uint32_t i) {
    if (nodes[i].stamp == epoch) return;
    nodes[i] = {epoch, i, 0, 0, 0};
    frontier.push_back(i);
  }
};

/// Per-thread scratch for every a-graph traversal. Members are disjoint so
/// one routine can use several at once, but no routine may recurse into
/// another user of the same member (see file comment).
struct TraversalScratch {
  BfsSide fwd;
  BfsSide bwd;
  LabelBitset allowed;
  EpochVisitSet set_a;
  EpochVisitSet set_b;
  std::vector<uint32_t> queue;  // generic worklist (head-index iteration)
};

/// Intersects two ascending sorted ranges into *out (cleared first).
/// Iterates the smaller range; when the size ratio is large it gallops
/// (exponential probe + binary search) through the larger range instead of
/// stepping linearly, making multi-term keyword search cost
/// O(|small| log |large|) rather than O(|small| + |large|).
template <typename T>
void IntersectSorted(const T* a, size_t na, const T* b, size_t nb,
                     std::vector<T>* out) {
  out->clear();
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return;
  if (na >= 16 && nb / na < 8) {
    // Comparable sizes: linear two-pointer merge.
    size_t i = 0, j = 0;
    while (i < na && j < nb) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        out->push_back(a[i]);
        ++i;
        ++j;
      }
    }
    return;
  }
  // Galloping: monotone cursor into b, exponential probe per element of a.
  size_t lo = 0;
  for (size_t i = 0; i < na && lo < nb; ++i) {
    const T& x = a[i];
    if (b[lo] < x) {
      size_t bound = 1;
      while (lo + bound < nb && b[lo + bound] < x) bound <<= 1;
      size_t hi = std::min(lo + bound + 1, nb);
      lo = static_cast<size_t>(std::lower_bound(b + lo, b + hi, x) - b);
    }
    if (lo < nb && b[lo] == x) out->push_back(x);
  }
}

template <typename T>
void IntersectSorted(const std::vector<T>& a, const std::vector<T>& b,
                     std::vector<T>* out) {
  IntersectSorted(a.data(), a.size(), b.data(), b.size(), out);
}

}  // namespace util
}  // namespace graphitti

#endif  // GRAPHITTI_UTIL_DENSE_SET_H_
