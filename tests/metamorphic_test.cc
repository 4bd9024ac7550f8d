// Metamorphic and property tests across the full engine: relations between
// query forms that must hold on any corpus, checked over generated studies.
#include <gtest/gtest.h>

#include <set>

#include "core/graphitti.h"
#include "core/workload.h"

namespace graphitti {
namespace core {
namespace {

using annotation::AnnotationBuilder;

class MetamorphicTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    InfluenzaParams params;
    params.seed = GetParam();
    params.num_annotations = 150;
    params.protease_fraction = 0.25;
    auto corpus = GenerateInfluenzaStudy(&g_, params);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = std::move(corpus).ValueUnsafe();
  }

  Graphitti g_;
  InfluenzaCorpus corpus_;
};

TEST_P(MetamorphicTest, CountEqualsContentsCardinality) {
  const char* kWhere = "{ ?a CONTAINS \"protease\" }";
  auto contents = g_.Query(std::string("FIND CONTENTS WHERE ") + kWhere);
  auto count = g_.Query(std::string("FIND COUNT ?a WHERE ") + kWhere);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->items[0].count, contents->items.size());
}

TEST_P(MetamorphicTest, ContainedInIsSubsetOfOverlaps) {
  for (const std::string& domain : corpus_.segment_domains) {
    std::string base = "?s TYPE interval ; ?s DOMAIN \"" + domain + "\" ; ?s ";
    auto overlaps =
        g_.Query("FIND REFERENTS WHERE { " + base + "OVERLAPS [200, 1200] }");
    auto contained =
        g_.Query("FIND REFERENTS WHERE { " + base + "CONTAINEDIN [200, 1200] }");
    ASSERT_TRUE(overlaps.ok());
    ASSERT_TRUE(contained.ok());
    std::set<uint64_t> overlap_ids;
    for (const auto& item : overlaps->items) overlap_ids.insert(item.referent_id);
    for (const auto& item : contained->items) {
      EXPECT_TRUE(overlap_ids.count(item.referent_id) > 0)
          << "containment hit not in overlap set, domain " << domain;
      EXPECT_TRUE(
          spatial::Interval(200, 1200).Contains(contained->SubstructureOf(item)->interval()));
    }
  }
}

TEST_P(MetamorphicTest, NarrowingWindowNeverAddsResults) {
  const std::string& domain = corpus_.segment_domains[0];
  auto count_in = [&](int64_t lo, int64_t hi) {
    auto r = g_.Query("FIND COUNT ?s WHERE { ?s TYPE interval ; ?s DOMAIN \"" + domain +
                      "\" ; ?s OVERLAPS [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "] }");
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->items[0].count : 0;
  };
  size_t wide = count_in(0, 2000);
  size_t mid = count_in(200, 1500);
  size_t narrow = count_in(400, 800);
  EXPECT_GE(wide, mid);
  EXPECT_GE(mid, narrow);
}

TEST_P(MetamorphicTest, ExtraConjunctNeverAddsResults) {
  auto base = g_.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  auto refined = g_.Query(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?a CONTAINS \"motif\" }");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(refined.ok());
  EXPECT_LE(refined->items.size(), base->items.size());
  std::set<uint64_t> base_ids;
  for (const auto& item : base->items) base_ids.insert(item.content_id);
  for (const auto& item : refined->items) {
    EXPECT_TRUE(base_ids.count(item.content_id) > 0);
  }
}

TEST_P(MetamorphicTest, KeywordIndexAgreesWithXQueryScan) {
  auto indexed = g_.annotations().SearchKeyword("reassortment");
  auto scanned = g_.annotations().XQuerySearch(
      "for $a in collection()/annotation where contains($a/body, 'reassortment') "
      "return $a");
  ASSERT_TRUE(scanned.ok());
  // The keyword index also covers titles/tags; bodies-only scan must be a
  // subset of the indexed hits.
  std::set<uint64_t> indexed_ids(indexed.begin(), indexed.end());
  for (uint64_t id : *scanned) {
    EXPECT_TRUE(indexed_ids.count(id) > 0) << "annotation " << id;
  }
}

TEST_P(MetamorphicTest, RemovalIsCompleteAndMonotonic) {
  size_t before = g_.annotations().SearchKeyword("protease").size();
  size_t removed_protease = 0;
  for (size_t i = 0; i < 40; ++i) {
    annotation::AnnotationId id = corpus_.annotations[i];
    const annotation::Annotation* ann = g_.annotations().Get(id);
    ASSERT_NE(ann, nullptr);
    bool mentions = false;
    for (annotation::AnnotationId hit : g_.annotations().SearchKeyword("protease")) {
      if (hit == id) mentions = true;
    }
    ASSERT_TRUE(g_.RemoveAnnotation(id).ok());
    if (mentions) ++removed_protease;
  }
  size_t after = g_.annotations().SearchKeyword("protease").size();
  EXPECT_EQ(after, before - removed_protease);
  EXPECT_TRUE(g_.ValidateIntegrity().ok());
}

TEST_P(MetamorphicTest, GraphResultsAreValidConnectionSubgraphs) {
  auto r = g_.Query(
      "FIND GRAPH WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s ; ?s DOMAIN \"" +
      corpus_.segment_domains[1] + "\" } LIMIT 200 PAGE 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Subgraphs materialize per page; LIMIT 200 puts every checked row on
  // page 1 of the view.
  for (const auto& item : r->Page()) {
    ASSERT_TRUE(item.subgraph_ready);
    const agraph::SubGraph& sg = item.subgraph;
    ASSERT_FALSE(sg.nodes.empty());
    // Every edge endpoint is a member node.
    for (const auto& e : sg.edges) {
      EXPECT_TRUE(sg.ContainsNode(e.from));
      EXPECT_TRUE(sg.ContainsNode(e.to));
    }
    // Spanning property: a tree over n nodes needs >= n-1 edges.
    EXPECT_GE(sg.edges.size() + 1, sg.nodes.size());
  }
}

TEST_P(MetamorphicTest, BuilderXmlRoundTripOnGeneratedAnnotations) {
  for (size_t i = 0; i < 20; ++i) {
    const annotation::Annotation* ann = g_.annotations().Get(corpus_.annotations[i]);
    ASSERT_NE(ann, nullptr);
    auto rebuilt = AnnotationBuilder::FromContentXml(g_.annotations().ContentOf(*ann).root());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(rebuilt->dc().title, ann->dc.title);
    EXPECT_EQ(rebuilt->body(), ann->body);
    EXPECT_EQ(rebuilt->marks().size(), ann->referents.size());
    EXPECT_EQ(rebuilt->ontology_refs().size(), ann->ontology_refs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicTest, ::testing::Values(1, 7, 42, 2024));

}  // namespace
}  // namespace core
}  // namespace graphitti
