// connect(node1, node2, ...): connection subgraph via the distance-network
// Steiner-tree heuristic (Kou-Markowsky-Berman flavoured, grown greedily).
//
// The heuristic runs entirely on per-terminal BFS shortest-path trees: the
// canonical meet of each terminal pair (shortest connection distance + meet
// node) is found by expanding the two trees level-synchronized to half the
// pair distance, and the subgraph is grown Prim-style by attaching the
// cheapest missing terminal and merging the two tree paths through the
// meet. Trees are expanded lazily (only as deep as some pair needs), owned
// by a ConnectBatch, and pair meets are memoized per batch, so connecting
// many rows whose terminal sets overlap — the query executor's GRAPH
// collation — builds each distinct terminal's tree once and resolves each
// recurring pair once, instead of re-running the search per row. Pair
// resolution is itself lazy inside the Prim loop: a pair that has scanned
// L meet-free levels is known to be >= 2L-1 apart, so once any candidate
// resolves, pairs whose lower bound exceeds it stop expanding — cold
// many-terminal rows touch far fewer than all O(k^2) pairs. Every choice
// ties-break on dense indexes through schedule-free definitions, so a tree
// pre-expanded by an earlier row never changes a later row's answer: batch
// results are edge-set-identical to per-row Connect, which simply runs a
// batch of one.
//
// Tree record arrays — the O(V) part — are epoch-stamped and recycled
// through a byte-capped thread-local pool, and batch States (maps +
// call-local buffers) are recycled the same way, so one-shot Connect calls
// in steady state allocate only per-terminal map nodes and the returned
// SubGraph.
#include <algorithm>
#include <atomic>
#include <memory>
#include <tuple>

#include "agraph/agraph.h"

namespace graphitti {
namespace agraph {

namespace {

constexpr uint32_t kNone = ~0u;

// Tree liveness stamps come from one process-global counter, NOT the
// thread-local recycling pools: trees can be recycled across threads (a
// batch cached on a QueryResult is destroyed on whichever thread flips its
// last page), and a per-thread counter could re-issue a stamp still present
// in a recycled record array. Relaxed order suffices — the handoff of the
// arrays themselves provides the synchronization.
std::atomic<uint64_t> g_tree_epoch{0};

// One selected tree edge, deduplicated on the undirected key (a, b, label)
// while remembering the stored direction for the output EdgeRecord.
struct TreeEdge {
  uint32_t a;  // min(dense endpoints)
  uint32_t b;  // max(dense endpoints)
  uint32_t label;
  uint32_t from;
  uint32_t to;
};

}  // namespace

/// BFS shortest-path tree rooted at one terminal, expanded ring by ring.
/// Ring r (nodes at exactly distance r from the root) is
/// order[ring_offsets[r], ring_offsets[r+1]); parents point one ring
/// rootward. Records are live only when their stamp matches the tree's
/// epoch, so a recycled tree never clears its O(V) array.
struct ConnectBatch::TerminalTree {
  struct Rec {
    uint64_t stamp = 0;
    uint32_t parent = 0;
    uint32_t label = 0;          // interned label of the edge to parent
    uint32_t dist = 0;           // hops from the root terminal
    uint8_t parent_forward = 0;  // edge stored parent -> node
  };

  std::vector<Rec> recs;
  uint64_t epoch = 0;
  uint32_t root = 0;
  size_t radius = 0;  // deepest expanded ring
  bool exhausted = false;
  std::vector<uint32_t> order;        // BFS discovery order
  std::vector<size_t> ring_offsets;   // radius + 2 entries once seeded
};

struct ConnectBatch::State {
  // Trees are recycled per thread so the dominant cost of a fresh tree —
  // zeroing its O(V) record array — is paid once per thread, not per
  // Connect call. The pool is capped in bytes (recs arrays scale with the
  // graph), so a batch that grew hundreds of trees — or trees sized for a
  // huge graph — frees the excess on destruction instead of stranding it.
  struct Pool {
    static constexpr size_t kMaxFreeBytes = size_t{64} << 20;
    std::vector<std::unique_ptr<TerminalTree>> free_trees;
    size_t free_bytes = 0;
  };
  // thread_local, so no capability annotation: the pool is unreachable
  // from any other thread and sits outside the checked locking discipline
  // by construction (see util/thread_annotations.h).
  static Pool& LocalPool() {
    thread_local Pool pool;
    return pool;
  }

  static size_t TreeBytes(const TerminalTree& t) {
    return t.recs.capacity() * sizeof(TerminalTree::Rec) +
           t.order.capacity() * sizeof(uint32_t) +
           t.ring_offsets.capacity() * sizeof(size_t);
  }

  // States themselves (the maps and call-local buffers) are also recycled
  // per thread, so repeated one-shot Connects reuse bucket arrays and
  // vector capacity instead of reallocating per call.
  static std::vector<std::unique_ptr<State>>& FreeStates() {
    thread_local std::vector<std::unique_ptr<State>> free_states;
    return free_states;
  }
  static std::unique_ptr<State> Borrow() {
    auto& free_states = FreeStates();
    if (free_states.empty()) return std::make_unique<State>();
    std::unique_ptr<State> st = std::move(free_states.back());
    free_states.pop_back();
    return st;
  }
  static void Return(std::unique_ptr<State> st) {
    st->trees.clear();
    st->pair_meets.clear();
    st->pair_tasks.clear();
    auto& free_states = FreeStates();
    if (free_states.size() < 4) free_states.push_back(std::move(st));
  }

  /// Canonical meet between two terminal trees: the shortest connection
  /// distance and the smallest-dense-index meet node among the pairs
  /// registered by the trees' synchronized half-depth expansion (a pure
  /// function of the graph; see Connect). Entries resolve incrementally:
  /// `next_level` counts the synchronized levels already scanned meet-free
  /// (so the pair distance is >= 2*next_level - 1 until `resolved`), and
  /// once `resolved` is set, dist/meet are final — dist == SIZE_MAX when
  /// the terminals are not connectable within max_hops.
  struct PairMeet {
    size_t dist = SIZE_MAX;
    uint32_t meet = kNone;
    uint32_t next_level = 0;
    bool resolved = false;
  };

  /// One (absorbed terminal, missing terminal) pair of the current Prim
  /// round, pointing at its memoized (possibly partial) meet entry.
  struct PairTask {
    uint32_t c;  // absorbed-side terminal
    uint32_t t;  // missing terminal
    PairMeet* pm;
  };

  util::LabelBitset allowed;
  // lint: allow-map(per-call scratch, recycled via thread-local pool)
  std::unordered_map<uint32_t, std::unique_ptr<TerminalTree>> trees;
  // lint: allow-map(per-call scratch, recycled via thread-local pool)
  std::unordered_map<uint64_t, PairMeet> pair_meets;  // key: min<<32 | max
  // Call-local buffers reused across rows (cleared per row).
  std::vector<uint32_t> term_idx;
  std::vector<uint32_t> component;
  std::vector<uint32_t> connected;  // terminals absorbed so far
  std::vector<uint32_t> missing;
  std::vector<TreeEdge> tree_edges;
  // Lazy pair-resolution scratch (cleared per Prim round).
  std::vector<PairTask> pair_tasks;
};

ConnectBatch::ConnectBatch(const AGraph& graph, ConnectOptions options)
    : graph_(&graph), options_(std::move(options)), state_(State::Borrow()) {
  filter_unsatisfiable_ = !graph_->BuildAllowedBitset(options_.allowed_labels,
                                                      &state_->allowed, &has_filter_);
}

ConnectBatch::~ConnectBatch() {
  State::Pool& pool = State::LocalPool();
  for (auto& [idx, tree] : state_->trees) {
    const size_t bytes = State::TreeBytes(*tree);
    if (pool.free_bytes + bytes > State::Pool::kMaxFreeBytes) continue;
    pool.free_bytes += bytes;
    pool.free_trees.push_back(std::move(tree));
  }
  State::Return(std::move(state_));
}

size_t ConnectBatch::trees_built() const { return state_->trees.size(); }

ConnectBatch::TerminalTree& ConnectBatch::TreeFor(uint32_t terminal) {
  auto [it, inserted] = state_->trees.try_emplace(terminal);
  if (!inserted) return *it->second;

  State::Pool& pool = State::LocalPool();
  if (!pool.free_trees.empty()) {
    it->second = std::move(pool.free_trees.back());
    pool.free_trees.pop_back();
    pool.free_bytes -= State::TreeBytes(*it->second);
  } else {
    it->second = std::make_unique<TerminalTree>();
  }
  TerminalTree& tree = *it->second;
  if (tree.recs.size() < graph_->refs_.size()) {
    tree.recs.resize(graph_->refs_.size());  // fresh records carry stamp 0
  }
  tree.epoch = g_tree_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  tree.root = terminal;
  tree.radius = 0;
  tree.exhausted = false;
  tree.order.clear();
  tree.order.push_back(terminal);
  tree.ring_offsets.clear();
  tree.ring_offsets.push_back(0);
  tree.ring_offsets.push_back(1);
  TerminalTree::Rec& rec = tree.recs[terminal];
  rec.stamp = tree.epoch;
  rec.parent = terminal;
  rec.label = 0;
  rec.dist = 0;
  rec.parent_forward = 0;
  return tree;
}

void ConnectBatch::ExpandRing(TerminalTree* tree) {
  const size_t begin = tree->ring_offsets[tree->radius];
  const size_t end = tree->ring_offsets[tree->radius + 1];
  for (size_t i = begin; i < end; ++i) {
    const uint32_t v = tree->order[i];
    const uint32_t next_dist = static_cast<uint32_t>(tree->radius) + 1;
    for (const AGraph::Edge& e : graph_->out_[v]) {
      if (has_filter_ && !state_->allowed.Test(e.label)) continue;
      TerminalTree::Rec& rec = tree->recs[e.other];
      if (rec.stamp == tree->epoch) continue;
      rec.stamp = tree->epoch;
      rec.parent = v;
      rec.label = e.label;
      rec.dist = next_dist;
      rec.parent_forward = 1;  // stored v -> other
      tree->order.push_back(e.other);
    }
    for (const AGraph::Edge& e : graph_->in_[v]) {
      if (has_filter_ && !state_->allowed.Test(e.label)) continue;
      TerminalTree::Rec& rec = tree->recs[e.other];
      if (rec.stamp == tree->epoch) continue;
      rec.stamp = tree->epoch;
      rec.parent = v;
      rec.label = e.label;
      rec.dist = next_dist;
      rec.parent_forward = 0;  // stored other -> v
      tree->order.push_back(e.other);
    }
  }
  tree->ring_offsets.push_back(tree->order.size());
  ++tree->radius;
  if (tree->ring_offsets[tree->radius] == tree->ring_offsets[tree->radius + 1]) {
    tree->exhausted = true;
  }
}

util::Result<SubGraph> ConnectBatch::Connect(const std::vector<NodeRef>& terminals,
                                             const util::Deadline& deadline,
                                             const util::CancellationToken& cancel) {
  if (terminals.empty()) {
    return util::Status::InvalidArgument("connect() requires at least one terminal");
  }
  if (filter_unsatisfiable_) {
    return util::Status::NotFound("no edges carry any of the allowed labels");
  }
  const AGraph& g = *graph_;
  State& st = *state_;
  st.term_idx.clear();
  for (const NodeRef& t : terminals) {
    GRAPHITTI_ASSIGN_OR_RETURN(uint32_t idx, g.DenseIndex(t));
    st.term_idx.push_back(idx);
  }
  std::sort(st.term_idx.begin(), st.term_idx.end());
  st.term_idx.erase(std::unique(st.term_idx.begin(), st.term_idx.end()),
                    st.term_idx.end());

  // Component membership lives in set_a for the whole row (the trees keep
  // their own epoch-stamped records, so no scratch member is nested).
  util::TraversalScratch& s = AGraph::Scratch();
  s.set_a.Begin(g.refs_.size());
  st.component.clear();
  st.component.push_back(st.term_idx[0]);
  s.set_a.Insert(st.term_idx[0]);
  st.missing.assign(st.term_idx.begin() + 1, st.term_idx.end());  // ascending

  std::vector<TreeEdge>& tree_edges = st.tree_edges;
  tree_edges.clear();
  auto add_tree_edge = [&](uint32_t from, uint32_t to, uint32_t label) {
    uint32_t a = std::min(from, to);
    uint32_t b = std::max(from, to);
    for (const TreeEdge& e : tree_edges) {
      if (e.a == a && e.b == b && e.label == label) return;
    }
    tree_edges.push_back({a, b, label, from, to});
  };
  auto add_component_node = [&](uint32_t n) {
    if (s.set_a.Insert(n)) st.component.push_back(n);
  };

  // Canonical meet between the trees of two terminals, memoized per batch
  // — this is where rows sharing terminals stop paying for each other.
  // Both trees expand level-synchronized; after completing level L every
  // meet node x with max(dist_a(x), dist_b(x)) <= L has been scored, so
  // the midpoint of a shortest a..b connection of length D is scored by
  // level ceil(D/2) and the first level that scores a valid pair proves
  // the minimum — each tree stops at roughly half the pair distance.
  // Minimal meets deeper than that (e.g. dist 1+3 for D=4) exist but are
  // never scanned; the canonical winner is the min dense index among
  // minimal meets with max-depth <= ceil(D/2), a set defined by the two
  // distance functions alone — a pure function of the graph, never of how
  // deep earlier rows happened to expand either tree. Keep the scan and
  // this definition in lockstep: scoring deeper meets (or skipping the
  // rec.dist > level cap below) silently breaks batch-vs-per-row identity.
  auto meet_entry = [&](uint32_t t1, uint32_t t2) -> State::PairMeet& {
    const uint64_t key =
        (static_cast<uint64_t>(std::min(t1, t2)) << 32) | std::max(t1, t2);
    return st.pair_meets[key];  // node-based: pointers stay stable
  };
  // Scanning levels 0..next_level-1 meet-free proves any connection is
  // scored no earlier than level next_level, i.e. its length is at least
  // 2*next_level - 1. (Distinct terminals are always >= 1 apart.)
  auto meet_lower_bound = [](const State::PairMeet& pm) -> size_t {
    return pm.next_level == 0 ? 1 : 2 * static_cast<size_t>(pm.next_level) - 1;
  };
  auto scan_ring = [&](const TerminalTree& ring_tree,
                       const TerminalTree& ball_tree, size_t level,
                       State::PairMeet* best) {
    if (ring_tree.radius < level) return;
    for (size_t i = ring_tree.ring_offsets[level];
         i < ring_tree.ring_offsets[level + 1]; ++i) {
      const uint32_t x = ring_tree.order[i];
      const TerminalTree::Rec& rec = ball_tree.recs[x];
      // Records deeper than the synchronized level never contribute:
      // they re-register at their own level via the other scan.
      if (rec.stamp != ball_tree.epoch || rec.dist > level) continue;
      const size_t d = level + rec.dist;
      if (d > options_.max_hops) continue;
      if (d < best->dist || (d == best->dist && x < best->meet)) {
        best->dist = d;
        best->meet = x;
      }
    }
  };

  // Governance: checked between Prim rounds and pair-resolution sweeps —
  // the coarse units of work (each sweep may expand several BFS rings). An
  // abort returns through the normal error path without touching tree
  // state, so a retry on this batch resumes from the rings already built.
  util::GovernanceGate gate(deadline, cancel);
  auto check_governance = [&]() -> util::Status {
    GRAPHITTI_RETURN_NOT_OK(gate.CheckNow());
    if (options_.memory_budget_bytes != 0) {
      size_t bytes = 0;
      for (const auto& [idx, tree] : st.trees) bytes += State::TreeBytes(*tree);
      if (bytes > options_.memory_budget_bytes) {
        return util::Status::ResourceExhausted(
            "connect batch exceeded memory budget (" +
            std::to_string(options_.memory_budget_bytes) + " bytes)");
      }
    }
    return util::Status::OK();
  };

  // One lazy-resolution sweep over the current round's pairs: every
  // unresolved pair whose lower bound could still beat `bound` expands both
  // trees in place to the level it needs and scans that synchronized level.
  // Rings are only ever appended and scan_ring skips records deeper than
  // its level, so a tree another pair expanded further changes no scan.
  // Returns false once no pair can advance, i.e. every pair still able to
  // matter is resolved.
  auto advance_pairs = [&](size_t bound) -> bool {
    bool any = false;
    for (State::PairTask& p : st.pair_tasks) {
      State::PairMeet& pm = *p.pm;
      if (pm.resolved || meet_lower_bound(pm) > bound) continue;
      if (pm.next_level > options_.max_hops) {
        pm.resolved = true;  // dist stays SIZE_MAX: hop budget exhausted
        continue;
      }
      any = true;
      const size_t level = pm.next_level;
      TerminalTree& a = TreeFor(p.c);
      TerminalTree& b = TreeFor(p.t);
      while (a.radius < level && !a.exhausted) ExpandRing(&a);
      while (b.radius < level && !b.exhausted) ExpandRing(&b);
      scan_ring(a, b, level, &pm);
      scan_ring(b, a, level, &pm);
      if (pm.meet != kNone) {
        pm.resolved = true;  // first scored level proves the minimum
        continue;
      }
      const bool a_alive = !a.exhausted || a.radius > level;
      const bool b_alive = !b.exhausted || b.radius > level;
      if (!a_alive && !b_alive) {
        pm.resolved = true;  // dist stays SIZE_MAX: both trees dead
        continue;
      }
      ++pm.next_level;
    }
    return any;
  };

  st.connected.clear();
  st.connected.push_back(st.term_idx[0]);
  while (!st.missing.empty()) {
    GRAPHITTI_RETURN_NOT_OK(check_governance());
    // Distance-network Prim step: attach the missing terminal with the
    // cheapest connection to any absorbed terminal. The winner ties-break
    // on (distance, missing terminal, absorbed terminal, meet node) — all
    // dense indexes, so the choice is deterministic and row-order-free.
    // Pairs resolve lazily: each sweep advances only the pairs whose lower
    // bound could still beat (or tie, and out-tie-break) the best resolved
    // candidate, so a cold many-terminal row stops expanding most of its
    // O(k^2) pairs as soon as one short connection resolves. An unresolved
    // pair's final distance is >= its lower bound > best_d, so it can
    // never displace the winner — the winner is identical to the eager
    // all-pairs evaluation, and so is each resolved entry's value.
    st.pair_tasks.clear();
    for (uint32_t t : st.missing) {
      for (uint32_t c : st.connected) {
        st.pair_tasks.push_back({c, t, &meet_entry(c, t)});
      }
    }
    size_t best_d = SIZE_MAX;
    uint32_t best_t = kNone;
    uint32_t best_from = kNone;
    uint32_t best_x = kNone;
    for (;;) {
      best_d = SIZE_MAX;
      best_t = kNone;
      best_from = kNone;
      best_x = kNone;
      for (const State::PairTask& p : st.pair_tasks) {
        const State::PairMeet& pm = *p.pm;
        if (!pm.resolved || pm.dist == SIZE_MAX) continue;
        if (std::make_tuple(pm.dist, p.t, p.c, pm.meet) <
            std::make_tuple(best_d, best_t, best_from, best_x)) {
          best_d = pm.dist;
          best_t = p.t;
          best_from = p.c;
          best_x = pm.meet;
        }
      }
      if (!advance_pairs(best_d)) break;
      GRAPHITTI_RETURN_NOT_OK(check_governance());
    }
    if (best_t == kNone) {
      return util::Status::NotFound(
          "terminals are not in one connected component (unreached: " +
          g.refs_[st.missing.front()].ToString() + ")");
    }

    // Merge meet..absorbed-terminal and meet..attached-terminal along the
    // two trees' parent chains (both lead rootward, away from the meet).
    auto merge_path = [&](uint32_t root) {
      const TerminalTree& tree = *st.trees.find(root)->second;
      uint32_t cur = best_x;
      add_component_node(cur);
      while (cur != root) {
        const TerminalTree::Rec& rec = tree.recs[cur];
        if (rec.parent_forward) {
          add_tree_edge(rec.parent, cur, rec.label);
        } else {
          add_tree_edge(cur, rec.parent, rec.label);
        }
        add_component_node(rec.parent);
        cur = rec.parent;
      }
    };
    merge_path(best_from);
    merge_path(best_t);
    st.connected.push_back(best_t);
    st.missing.erase(std::remove(st.missing.begin(), st.missing.end(), best_t),
                     st.missing.end());
  }

  // Prune: repeatedly drop non-terminal nodes of tree-degree <= 1. Degrees
  // are recounted by scanning the (output-sized) tree per node, which beats
  // a per-round hash map at the sizes Connect produces; peeling to the
  // 1-degree closure is confluent, so live recounting reaches the same
  // fixpoint as a per-round snapshot.
  util::EpochVisitSet& terminal_set = s.set_b;
  terminal_set.Begin(g.refs_.size());
  for (uint32_t t : st.term_idx) terminal_set.Insert(t);
  auto tree_degree = [&](uint32_t node) {
    size_t d = 0;
    for (const TreeEdge& e : tree_edges) d += (e.a == node) + (e.b == node);
    return d;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = st.component.begin(); it != st.component.end();) {
      uint32_t node = *it;
      if (!terminal_set.Contains(node) && tree_degree(node) <= 1) {
        tree_edges.erase(std::remove_if(tree_edges.begin(), tree_edges.end(),
                                        [&](const TreeEdge& e) {
                                          return e.a == node || e.b == node;
                                        }),
                         tree_edges.end());
        it = st.component.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }

  SubGraph sg;
  sg.nodes.reserve(st.component.size());
  for (uint32_t n : st.component) sg.nodes.push_back(g.refs_[n]);
  std::sort(sg.nodes.begin(), sg.nodes.end());
  std::sort(tree_edges.begin(), tree_edges.end(),
            [](const TreeEdge& x, const TreeEdge& y) {
              return std::tie(x.a, x.b, x.label) < std::tie(y.a, y.b, y.label);
            });
  sg.edges.reserve(tree_edges.size());
  for (const TreeEdge& e : tree_edges) {
    sg.edges.push_back({g.refs_[e.from], g.refs_[e.to], g.labels_[e.label]});
  }
  return sg;
}

util::Result<SubGraph> AGraph::Connect(const std::vector<NodeRef>& terminals,
                                       const ConnectOptions& options) const {
  ConnectBatch batch(*this, options);
  return batch.Connect(terminals);
}

}  // namespace agraph
}  // namespace graphitti
