#include <gtest/gtest.h>

#include "agraph/agraph.h"

namespace graphitti {
namespace agraph {
namespace {

TEST(AGraphAnalyticsTest, ConnectedComponents) {
  AGraph g;
  // Component 1: contents 1-2-3 chained; component 2: referent 10 alone;
  // component 3: term 5 <-> object 6.
  for (uint64_t i = 1; i <= 3; ++i) ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(1), NodeRef::Content(2), "e").ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Content(2), NodeRef::Content(3), "e").ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(10)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Term(5)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Object(6)).ok());
  ASSERT_TRUE(g.AddEdge(NodeRef::Term(5), NodeRef::Object(6), "x").ok());

  auto components = g.ConnectedComponents();
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0],
            (std::vector<NodeRef>{NodeRef::Content(1), NodeRef::Content(2),
                                  NodeRef::Content(3)}));
  EXPECT_EQ(components[1], (std::vector<NodeRef>{NodeRef::Referent(10)}));
  EXPECT_EQ(components[2], (std::vector<NodeRef>{NodeRef::Term(5), NodeRef::Object(6)}));
}

TEST(AGraphAnalyticsTest, EmptyGraph) {
  AGraph g;
  EXPECT_TRUE(g.ConnectedComponents().empty());
  EXPECT_TRUE(g.CountByKind().empty());
  AGraph::DegreeStats stats = g.Degrees();
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 0u);
  EXPECT_EQ(stats.mean, 0.0);
}

TEST(AGraphAnalyticsTest, CountByKind) {
  AGraph g;
  ASSERT_TRUE(g.AddNode(NodeRef::Content(1)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Content(2)).ok());
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(3)).ok());
  auto counts = g.CountByKind();
  EXPECT_EQ(counts[NodeKind::kContent], 2u);
  EXPECT_EQ(counts[NodeKind::kReferent], 1u);
  EXPECT_EQ(counts.count(NodeKind::kOntologyTerm), 0u);
}

TEST(AGraphAnalyticsTest, DegreeStats) {
  AGraph g;
  // Star: hub with 3 spokes.
  ASSERT_TRUE(g.AddNode(NodeRef::Referent(0)).ok());
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(g.AddNode(NodeRef::Content(i)).ok());
    ASSERT_TRUE(g.AddEdge(NodeRef::Content(i), NodeRef::Referent(0), "annotates").ok());
  }
  AGraph::DegreeStats stats = g.Degrees();
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 3u);
  EXPECT_DOUBLE_EQ(stats.mean, 6.0 / 4.0);
}

class AllPathsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two routes 0 -> 3: direct via 1, longer via 2a-2b.
    for (uint64_t i = 0; i <= 4; ++i) ASSERT_TRUE(g_.AddNode(NodeRef::Content(i)).ok());
    ASSERT_TRUE(g_.AddEdge(NodeRef::Content(0), NodeRef::Content(1), "a").ok());
    ASSERT_TRUE(g_.AddEdge(NodeRef::Content(1), NodeRef::Content(3), "b").ok());
    ASSERT_TRUE(g_.AddEdge(NodeRef::Content(0), NodeRef::Content(2), "c").ok());
    ASSERT_TRUE(g_.AddEdge(NodeRef::Content(2), NodeRef::Content(4), "d").ok());
    ASSERT_TRUE(g_.AddEdge(NodeRef::Content(4), NodeRef::Content(3), "e").ok());
  }
  AGraph g_;
};

TEST_F(AllPathsTest, FindsAllSimplePaths) {
  auto paths = g_.AllPaths(NodeRef::Content(0), NodeRef::Content(3), /*max_hops=*/5);
  ASSERT_EQ(paths.size(), 2u);
  // Each path starts/ends correctly and edge labels align with hops.
  for (const Path& p : paths) {
    EXPECT_EQ(p.nodes.front(), NodeRef::Content(0));
    EXPECT_EQ(p.nodes.back(), NodeRef::Content(3));
    EXPECT_EQ(p.edge_labels.size(), p.nodes.size() - 1);
  }
}

TEST_F(AllPathsTest, HopBoundFiltersLongRoutes) {
  auto paths = g_.AllPaths(NodeRef::Content(0), NodeRef::Content(3), /*max_hops=*/2);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].hops(), 2u);
}

TEST_F(AllPathsTest, MaxPathsCap) {
  auto paths = g_.AllPaths(NodeRef::Content(0), NodeRef::Content(3), 5, /*max_paths=*/1);
  EXPECT_EQ(paths.size(), 1u);
  EXPECT_TRUE(g_.AllPaths(NodeRef::Content(0), NodeRef::Content(3), 5, 0).empty());
}

TEST_F(AllPathsTest, MissingNodesGiveEmpty) {
  EXPECT_TRUE(g_.AllPaths(NodeRef::Content(0), NodeRef::Content(99), 5).empty());
  EXPECT_TRUE(g_.AllPaths(NodeRef::Content(99), NodeRef::Content(0), 5).empty());
}

TEST_F(AllPathsTest, PathsAreSimpleNoCycles) {
  // Add a cycle 1 -> 0; paths must not revisit nodes.
  ASSERT_TRUE(g_.AddEdge(NodeRef::Content(1), NodeRef::Content(0), "z").ok());
  auto paths = g_.AllPaths(NodeRef::Content(0), NodeRef::Content(3), 6, 100);
  for (const Path& p : paths) {
    std::set<NodeRef> unique(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(unique.size(), p.nodes.size());
  }
}

}  // namespace
}  // namespace agraph
}  // namespace graphitti
