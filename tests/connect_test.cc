#include <gtest/gtest.h>

#include <map>
#include <set>

#include "agraph/agraph.h"
#include "util/random.h"

namespace graphitti {
namespace agraph {
namespace {

// Checks SubGraph invariants: contains all terminals, edges only between
// member nodes, connected (undirected), and no non-terminal leaf nodes
// (pruning worked).
void CheckConnectionSubgraph(const SubGraph& sg, const std::vector<NodeRef>& terminals) {
  for (const NodeRef& t : terminals) {
    EXPECT_TRUE(sg.ContainsNode(t)) << "missing terminal " << t.ToString();
  }
  std::set<NodeRef> members(sg.nodes.begin(), sg.nodes.end());
  std::map<NodeRef, std::set<NodeRef>> adj;
  for (const EdgeRecord& e : sg.edges) {
    EXPECT_TRUE(members.count(e.from) > 0) << e.from.ToString();
    EXPECT_TRUE(members.count(e.to) > 0) << e.to.ToString();
    adj[e.from].insert(e.to);
    adj[e.to].insert(e.from);
  }
  // Connectivity via BFS from the first node.
  if (!sg.nodes.empty()) {
    std::set<NodeRef> seen{sg.nodes[0]};
    std::vector<NodeRef> stack{sg.nodes[0]};
    while (!stack.empty()) {
      NodeRef cur = stack.back();
      stack.pop_back();
      for (const NodeRef& n : adj[cur]) {
        if (seen.insert(n).second) stack.push_back(n);
      }
    }
    EXPECT_EQ(seen.size(), sg.nodes.size()) << "subgraph is disconnected";
  }
  // Pruning: every degree<=1 node must be a terminal.
  std::set<NodeRef> terminal_set(terminals.begin(), terminals.end());
  for (const NodeRef& n : sg.nodes) {
    if (terminal_set.count(n) == 0) {
      EXPECT_GE(adj[n].size(), 2u) << "unpruned steiner leaf " << n.ToString();
    }
  }
}

class ConnectTest : public ::testing::Test {
 protected:
  // Star topology: contents 1..4 each annotate referent 100 (hub), and each
  // content also has a private referent 10+i.
  void SetUp() override {
    ASSERT_TRUE(g_.AddNode(NodeRef::Referent(100)).ok());
    for (uint64_t i = 1; i <= 4; ++i) {
      ASSERT_TRUE(g_.AddNode(NodeRef::Content(i)).ok());
      ASSERT_TRUE(g_.AddNode(NodeRef::Referent(10 + i)).ok());
      ASSERT_TRUE(g_.AddEdge(NodeRef::Content(i), NodeRef::Referent(100), "annotates").ok());
      ASSERT_TRUE(g_.AddEdge(NodeRef::Content(i), NodeRef::Referent(10 + i), "annotates").ok());
    }
  }
  AGraph g_;
};

TEST_F(ConnectTest, TwoTerminalsYieldPathSubgraph) {
  std::vector<NodeRef> terminals{NodeRef::Content(1), NodeRef::Content(2)};
  auto sg = g_.Connect(terminals);
  ASSERT_TRUE(sg.ok()) << sg.status().ToString();
  CheckConnectionSubgraph(*sg, terminals);
  // Shortest connection runs through the hub: 3 nodes, 2 edges.
  EXPECT_EQ(sg->nodes.size(), 3u);
  EXPECT_EQ(sg->edges.size(), 2u);
  EXPECT_TRUE(sg->ContainsNode(NodeRef::Referent(100)));
}

TEST_F(ConnectTest, FourTerminalsShareHub) {
  std::vector<NodeRef> terminals{NodeRef::Content(1), NodeRef::Content(2),
                                 NodeRef::Content(3), NodeRef::Content(4)};
  auto sg = g_.Connect(terminals);
  ASSERT_TRUE(sg.ok());
  CheckConnectionSubgraph(*sg, terminals);
  // Star through the hub: 5 nodes, 4 edges; private referents pruned away.
  EXPECT_EQ(sg->nodes.size(), 5u);
  EXPECT_EQ(sg->edges.size(), 4u);
  for (uint64_t i = 1; i <= 4; ++i) {
    EXPECT_FALSE(sg->ContainsNode(NodeRef::Referent(10 + i)));
  }
}

TEST_F(ConnectTest, SingleTerminalIsItself) {
  auto sg = g_.Connect({NodeRef::Content(1)});
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(sg->nodes.size(), 1u);
  EXPECT_TRUE(sg->edges.empty());
}

TEST_F(ConnectTest, DuplicateTerminalsCollapse) {
  auto sg = g_.Connect({NodeRef::Content(1), NodeRef::Content(1), NodeRef::Content(2)});
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(sg->nodes.size(), 3u);
}

TEST_F(ConnectTest, DisconnectedTerminalsNotFound) {
  ASSERT_TRUE(g_.AddNode(NodeRef::Content(99)).ok());
  auto sg = g_.Connect({NodeRef::Content(1), NodeRef::Content(99)});
  EXPECT_TRUE(sg.status().IsNotFound());
}

TEST_F(ConnectTest, UnknownTerminalRejected) {
  EXPECT_TRUE(g_.Connect({NodeRef::Content(1), NodeRef::Content(777)}).status().IsNotFound());
  EXPECT_TRUE(g_.Connect({}).status().IsInvalidArgument());
}

TEST_F(ConnectTest, LabelRestriction) {
  // Add a "refers-to" bridge that is the only path to a new node.
  ASSERT_TRUE(g_.AddNode(NodeRef::Term(50)).ok());
  ASSERT_TRUE(g_.AddEdge(NodeRef::Content(1), NodeRef::Term(50), "refers-to").ok());

  ConnectOptions annotates_only;
  annotates_only.allowed_labels = {"annotates"};
  EXPECT_TRUE(g_.Connect({NodeRef::Content(2), NodeRef::Term(50)}, annotates_only)
                  .status()
                  .IsNotFound());
  ConnectOptions both;
  both.allowed_labels = {"annotates", "refers-to"};
  EXPECT_TRUE(g_.Connect({NodeRef::Content(2), NodeRef::Term(50)}, both).ok());
}

// Property test: invariants hold on random graphs with random terminals.
class ConnectPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConnectPropertyTest, InvariantsOnRandomGraphs) {
  util::Rng rng(GetParam());
  AGraph g;
  const uint64_t n = 80;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  }
  // Connected backbone + random chords.
  for (uint64_t i = 1; i < n; ++i) {
    uint64_t parent = rng.Next64() % i;
    ASSERT_TRUE(g.AddEdge(NodeRef::Content(parent), NodeRef::Content(i), "e").ok());
  }
  for (int extra = 0; extra < 60; ++extra) {
    uint64_t a = rng.Next64() % n;
    uint64_t b = rng.Next64() % n;
    if (a != b) {
      ASSERT_TRUE(g.AddEdge(NodeRef::Content(a), NodeRef::Content(b), "e").ok());
    }
  }

  for (int trial = 0; trial < 10; ++trial) {
    size_t k = 2 + static_cast<size_t>(rng.Uniform(0, 4));
    std::vector<NodeRef> terminals;
    for (size_t i = 0; i < k; ++i) {
      terminals.push_back(NodeRef::Content(rng.Next64() % n));
    }
    auto sg = g.Connect(terminals);
    ASSERT_TRUE(sg.ok()) << sg.status().ToString();
    CheckConnectionSubgraph(*sg, terminals);
    // The connection subgraph should be small relative to the whole graph:
    // a tree over k terminals needs at most k * diameter nodes; with n=80
    // and BFS-paths it stays well under n.
    EXPECT_LE(sg->edges.size(), sg->nodes.size() - 1 + 2 * k);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectPropertyTest, ::testing::Values(2, 13, 47, 101, 333));

}  // namespace
}  // namespace agraph
}  // namespace graphitti
