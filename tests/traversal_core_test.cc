// Coverage for the zero-allocation traversal core: the epoch-stamped
// scratch must behave identically across repeated and interleaved calls
// (stale stamps never leak between generations or graphs), the
// bidirectional FindPath must agree with a reference one-sided BFS under
// every option combination, the galloping posting-list intersection
// must handle its edge cases, and the flat key set that dedups query
// collation must keep every distinct key across grows and probe chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <vector>

#include "agraph/agraph.h"
#include "util/dense_set.h"
#include "util/random.h"

namespace graphitti {
namespace agraph {
namespace {

// Reference shortest-hop distance via a plain one-sided BFS over the public
// edge API (independent of the scratch-based core under test).
std::optional<size_t> ReferenceDistance(const AGraph& g, NodeRef from, NodeRef to,
                                        const PathOptions& opt) {
  if (!g.HasNode(from) || !g.HasNode(to)) return std::nullopt;
  if (from == to) return 0;
  auto label_ok = [&](const std::string& l) {
    return opt.allowed_labels.empty() ||
           std::find(opt.allowed_labels.begin(), opt.allowed_labels.end(), l) !=
               opt.allowed_labels.end();
  };
  std::unordered_set<NodeRef, NodeRefHash> visited{from};
  std::vector<NodeRef> frontier{from};
  size_t dist = 0;
  while (!frontier.empty() && dist < opt.max_hops) {
    std::vector<NodeRef> next;
    for (NodeRef cur : frontier) {
      auto expand = [&](const EdgeRecord& e, NodeRef other) {
        if (!label_ok(e.label) || !visited.insert(other).second) return;
        next.push_back(other);
      };
      for (const EdgeRecord& e : g.OutEdges(cur)) expand(e, e.to);
      if (!opt.directed) {
        for (const EdgeRecord& e : g.InEdges(cur)) expand(e, e.from);
      }
    }
    ++dist;
    if (std::find(next.begin(), next.end(), to) != next.end()) return dist;
    frontier = std::move(next);
  }
  return std::nullopt;
}

// A returned path must be walkable edge by edge under the query's options.
void CheckPathIsValid(const AGraph& g, const Path& p, const PathOptions& opt) {
  ASSERT_EQ(p.edge_labels.size() + 1, p.nodes.size());
  for (size_t i = 0; i + 1 < p.nodes.size(); ++i) {
    const std::string& label = p.edge_labels[i];
    if (!opt.allowed_labels.empty()) {
      EXPECT_TRUE(std::find(opt.allowed_labels.begin(), opt.allowed_labels.end(),
                            label) != opt.allowed_labels.end());
    }
    bool forward = g.HasEdge(p.nodes[i], p.nodes[i + 1], label);
    bool backward = g.HasEdge(p.nodes[i + 1], p.nodes[i], label);
    if (opt.directed) {
      EXPECT_TRUE(forward) << "hop " << i << " violates direction";
    } else {
      EXPECT_TRUE(forward || backward) << "hop " << i << " is not an edge";
    }
  }
}

AGraph RandomGraph(uint64_t seed, uint64_t n, int chords) {
  util::Rng rng(seed);
  AGraph g;
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  }
  const char* labels[] = {"a", "b", "c"};
  for (uint64_t i = 1; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(NodeRef::Content(rng.Next64() % i), NodeRef::Content(i),
                          labels[rng.Next64() % 3])
                    .ok());
  }
  for (int k = 0; k < chords; ++k) {
    uint64_t a = rng.Next64() % n;
    uint64_t b = rng.Next64() % n;
    if (a != b) {
      EXPECT_TRUE(
          g.AddEdge(NodeRef::Content(a), NodeRef::Content(b), labels[rng.Next64() % 3])
              .ok());
    }
  }
  return g;
}

TEST(TraversalCoreTest, FindPathMatchesReferenceBfs) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    AGraph g = RandomGraph(seed, 60, 50);
    util::Rng rng(seed * 31);
    for (int trial = 0; trial < 60; ++trial) {
      NodeRef from = NodeRef::Content(rng.Next64() % 60);
      NodeRef to = NodeRef::Content(rng.Next64() % 60);
      PathOptions opt;
      opt.directed = (trial % 3 == 0);
      if (trial % 4 == 1) opt.allowed_labels = {"a", "b"};
      if (trial % 5 == 2) opt.max_hops = trial % 7;
      auto expected = ReferenceDistance(g, from, to, opt);
      auto got = g.FindPath(from, to, opt);
      if (expected.has_value()) {
        ASSERT_TRUE(got.ok()) << from.ToString() << "->" << to.ToString()
                              << " trial " << trial << ": " << got.status().ToString();
        EXPECT_EQ(got->hops(), *expected);
        CheckPathIsValid(g, *got, opt);
      } else {
        EXPECT_TRUE(got.status().IsNotFound()) << "trial " << trial;
      }
    }
  }
}

TEST(TraversalCoreTest, AppendReachableMatchesFindPathExistence) {
  // The reachability set from `from` within `max_hops` must contain exactly
  // the nodes FindPath reaches under the same options — the contract the
  // query executor's CONNECTED-join cache depends on.
  for (uint64_t seed : {3u, 17u}) {
    AGraph g = RandomGraph(seed, 50, 35);
    util::Rng rng(seed * 13);
    for (int trial = 0; trial < 12; ++trial) {
      NodeRef from = NodeRef::Content(rng.Next64() % 50);
      PathOptions opt;
      opt.directed = (trial % 3 == 0);
      if (trial % 4 == 1) opt.allowed_labels = {"a", "c"};
      opt.max_hops = trial % 6;
      std::vector<NodeRef> reach;
      g.AppendReachable(from, opt, &reach);
      std::unordered_set<NodeRef, NodeRefHash> reach_set(reach.begin(), reach.end());
      EXPECT_EQ(reach.size(), reach_set.size()) << "duplicates in reachable set";
      for (uint64_t i = 0; i < 50; ++i) {
        NodeRef to = NodeRef::Content(i);
        bool expected = ReferenceDistance(g, from, to, opt).has_value();
        EXPECT_EQ(reach_set.count(to) > 0, expected)
            << from.ToString() << "->" << to.ToString() << " trial " << trial;
      }
    }
  }
  // Unknown source: nothing is reachable.
  AGraph g = RandomGraph(5, 10, 5);
  std::vector<NodeRef> reach;
  g.AppendReachable(NodeRef::Content(999), PathOptions{}, &reach);
  EXPECT_TRUE(reach.empty());
}

TEST(TraversalCoreTest, RepeatedCallsReuseScratchIdentically) {
  AGraph g = RandomGraph(99, 40, 30);
  PathOptions opt;
  auto first = g.FindPath(NodeRef::Content(0), NodeRef::Content(39), opt);
  for (int i = 0; i < 20; ++i) {
    auto again = g.FindPath(NodeRef::Content(0), NodeRef::Content(39), opt);
    ASSERT_EQ(first.ok(), again.ok());
    if (first.ok()) {
      EXPECT_EQ(first->nodes, again->nodes);
      EXPECT_EQ(first->edge_labels, again->edge_labels);
    }
  }
}

TEST(TraversalCoreTest, InterleavedGraphsDoNotLeakScratchState) {
  // Two graphs of different sizes sharing the thread's scratch: stale
  // stamps from the larger graph must never satisfy queries on the smaller.
  AGraph big = RandomGraph(5, 80, 60);
  AGraph small;
  ASSERT_TRUE(small.AddNode(NodeRef::Content(0)).ok());
  ASSERT_TRUE(small.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(small.AddNode(NodeRef::Content(2)).ok());  // isolated
  ASSERT_TRUE(small.AddEdge(NodeRef::Content(0), NodeRef::Content(1), "x").ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(big.FindPath(NodeRef::Content(0), NodeRef::Content(79)).ok());
    auto p = small.FindPath(NodeRef::Content(0), NodeRef::Content(1));
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->hops(), 1u);
    EXPECT_TRUE(small.FindPath(NodeRef::Content(0), NodeRef::Content(2))
                    .status()
                    .IsNotFound());
    EXPECT_TRUE(big.Connect({NodeRef::Content(1), NodeRef::Content(50)}).ok());
    EXPECT_TRUE(small.Connect({NodeRef::Content(0), NodeRef::Content(2)})
                    .status()
                    .IsNotFound());
  }
}

TEST(TraversalCoreTest, MaxHopsBoundaryExact) {
  // Chain of length 6: reachable iff max_hops >= 6, for both FindPath and
  // Connect.
  AGraph g;
  for (uint64_t i = 0; i <= 6; ++i) ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(g.AddEdge(NodeRef::Content(i), NodeRef::Content(i + 1), "n").ok());
  }
  for (size_t hops = 0; hops <= 7; ++hops) {
    PathOptions popt;
    popt.max_hops = hops;
    auto p = g.FindPath(NodeRef::Content(0), NodeRef::Content(6), popt);
    ConnectOptions copt;
    copt.max_hops = hops;
    auto sg = g.Connect({NodeRef::Content(0), NodeRef::Content(6)}, copt);
    if (hops >= 6) {
      ASSERT_TRUE(p.ok()) << hops;
      EXPECT_EQ(p->hops(), 6u);
      EXPECT_TRUE(sg.ok()) << hops;
    } else {
      EXPECT_TRUE(p.status().IsNotFound()) << hops;
      EXPECT_TRUE(sg.status().IsNotFound()) << hops;
    }
  }
}

TEST(TraversalCoreTest, ConnectRepeatedCallsStable) {
  AGraph g = RandomGraph(17, 50, 40);
  std::vector<NodeRef> terminals{NodeRef::Content(3), NodeRef::Content(27),
                                 NodeRef::Content(44)};
  auto first = g.Connect(terminals);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 10; ++i) {
    auto again = g.Connect(terminals);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(first->nodes, again->nodes);
    EXPECT_EQ(first->edges.size(), again->edges.size());
  }
}

TEST(TraversalCoreTest, AppendNeighborsMatchesNeighbors) {
  AGraph g = RandomGraph(41, 30, 40);
  std::vector<NodeRef> buf;
  for (uint64_t i = 0; i < 30; ++i) {
    for (bool directed : {false, true}) {
      for (const char* label : {"", "a"}) {
        buf.clear();
        g.AppendNeighbors(NodeRef::Content(i), directed, label, &buf);
        std::sort(buf.begin(), buf.end());
        EXPECT_EQ(buf, g.Neighbors(NodeRef::Content(i), directed, label));
      }
    }
  }
}

TEST(NodeRefHashTest, MixedKindsAndDenseIdsDoNotCollide) {
  // splitmix64 over the injective (id << 2) | kind encoding is a bijection:
  // dense ids across all four kinds must hash to distinct values (the seed
  // hash collided bucket-wise for exactly this pattern).
  NodeRefHash h;
  std::unordered_set<size_t> hashes;
  for (uint64_t id = 0; id < 10000; ++id) {
    hashes.insert(h(NodeRef::Content(id)));
    hashes.insert(h(NodeRef::Referent(id)));
    hashes.insert(h(NodeRef::Term(id)));
    hashes.insert(h(NodeRef::Object(id)));
  }
  EXPECT_EQ(hashes.size(), 40000u);
}

}  // namespace
}  // namespace agraph

namespace util {
namespace {

std::vector<uint64_t> Intersect(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  IntersectSorted(a, b, &out);
  return out;
}

TEST(IntersectSortedTest, EdgeCases) {
  using V = std::vector<uint64_t>;
  EXPECT_EQ(Intersect({}, {}), V{});
  EXPECT_EQ(Intersect({}, {1, 2, 3}), V{});            // empty posting
  EXPECT_EQ(Intersect({2}, {1, 2, 3}), V{2});          // single element, hit
  EXPECT_EQ(Intersect({5}, {1, 2, 3}), V{});           // single element, miss
  EXPECT_EQ(Intersect({1, 3, 5}, {2, 4, 6}), V{});     // disjoint
  EXPECT_EQ(Intersect({1, 2, 3}, {1, 2, 3}), (V{1, 2, 3}));  // identical
  // Boundary hits at both ends of the larger list.
  EXPECT_EQ(Intersect({1, 100}, {1, 5, 50, 100}), (V{1, 100}));
}

TEST(IntersectSortedTest, MatchesSetIntersectionOnRandomInputs) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    // Skewed sizes exercise the galloping branch; similar sizes the merge.
    size_t na = 1 + rng.Next64() % 40;
    size_t nb = 1 + rng.Next64() % (trial % 2 == 0 ? 2000 : 60);
    std::vector<uint64_t> a, b;
    for (size_t i = 0; i < na; ++i) a.push_back(rng.Next64() % 500);
    for (size_t i = 0; i < nb; ++i) b.push_back(rng.Next64() % 500);
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    std::vector<uint64_t> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(Intersect(a, b), expected) << "trial " << trial;
    EXPECT_EQ(Intersect(b, a), expected) << "trial " << trial << " (swapped)";
  }
}

TEST(EpochVisitSetTest, GenerationsIsolateAndEraseWorks) {
  EpochVisitSet s;
  s.Begin(8);
  EXPECT_TRUE(s.Insert(3));
  EXPECT_FALSE(s.Insert(3));
  EXPECT_TRUE(s.Contains(3));
  s.Erase(3);
  EXPECT_FALSE(s.Contains(3));
  EXPECT_TRUE(s.Insert(3));
  s.Begin(8);  // new generation: previous members gone, no clearing
  EXPECT_FALSE(s.Contains(3));
  EXPECT_TRUE(s.Insert(3));
  s.Begin(16);  // growth keeps earlier stamps invalid
  for (uint32_t i = 0; i < 16; ++i) EXPECT_FALSE(s.Contains(i));
}

TEST(KeySetTest, DedupsAcrossGrowsAndStoresKeyZero) {
  KeySet s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.Insert(0));  // 0 marks an empty slot, yet is a valid key
  EXPECT_FALSE(s.Insert(0));
  EXPECT_EQ(s.size(), 1u);
  // 5000 keys grow the table from 16 to 16384 slots, ten times; every key
  // must survive each rehash and be refused as a duplicate afterwards.
  for (uint64_t k = 1; k <= 5000; ++k) {
    EXPECT_TRUE(s.Insert(Mix64(k))) << k;
    EXPECT_FALSE(s.Insert(Mix64(k))) << k;
  }
  for (uint64_t k = 1; k <= 5000; ++k) EXPECT_FALSE(s.Insert(Mix64(k))) << k;
  EXPECT_FALSE(s.Insert(0));
  EXPECT_EQ(s.size(), 5001u);
}

TEST(KeySetTest, KeysCollidingModuloTheTableSizeStayDistinct) {
  // The slot is a key's low bits. Keys that differ only above bit 12 share
  // one home slot in every table up to 4096 slots: the multiples of 4096
  // pile up from slot 0, and the keys ending in 0xfff start at the last
  // slot, so their probes wrap around into the first pile.
  KeySet s;
  for (uint64_t k = 1; k <= 300; ++k) {
    EXPECT_TRUE(s.Insert(k << 12)) << k;
    EXPECT_TRUE(s.Insert((k << 12) | 0xfff)) << k;
  }
  for (uint64_t k = 1; k <= 300; ++k) {
    EXPECT_FALSE(s.Insert(k << 12)) << k;
    EXPECT_FALSE(s.Insert((k << 12) | 0xfff)) << k;
  }
  // Keys homed inside the piles are still told apart from them.
  EXPECT_TRUE(s.Insert(1));
  EXPECT_TRUE(s.Insert(0xfff));
  EXPECT_FALSE(s.Insert(1));
  EXPECT_FALSE(s.Insert(0xfff));
  EXPECT_EQ(s.size(), 602u);
}

TEST(KeySetTest, ReservedSetDedupsAndStillGrowsPastItsSize) {
  KeySet s;
  s.Reserve(1000);
  for (uint64_t k = 1; k <= 1000; ++k) EXPECT_TRUE(s.Insert(Mix64(k))) << k;
  // Reserving a set that holds keys leaves them in place.
  s.Reserve(4000);
  for (uint64_t k = 1; k <= 1000; ++k) EXPECT_FALSE(s.Insert(Mix64(k))) << k;
  // Past the reserved count the table grows as usual.
  for (uint64_t k = 1001; k <= 3000; ++k) EXPECT_TRUE(s.Insert(Mix64(k))) << k;
  for (uint64_t k = 1; k <= 3000; ++k) EXPECT_FALSE(s.Insert(Mix64(k))) << k;
  EXPECT_TRUE(s.Insert(0));
  EXPECT_EQ(s.size(), 3001u);
}

}  // namespace
}  // namespace util
}  // namespace graphitti
