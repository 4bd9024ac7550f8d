#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "agraph/agraph.h"
#include "annotation/annotation_store.h"
#include "spatial/index_manager.h"

namespace graphitti {
namespace annotation {
namespace {

class AnnotationStoreTest : public ::testing::Test {
 protected:
  AnnotationStoreTest() : store_(&indexes_, &graph_) {
    (void)indexes_.coordinate_systems().RegisterCanonical("atlas", 2);
  }

  AnnotationBuilder Simple(const std::string& title, const std::string& body,
                           const std::string& domain = "chr1", int64_t lo = 0,
                           int64_t hi = 10, uint64_t object = 0) {
    AnnotationBuilder b;
    b.Title(title).Body(body).MarkInterval(domain, lo, hi, object);
    return b;
  }

  spatial::IndexManager indexes_;
  agraph::AGraph graph_;
  AnnotationStore store_;
};

TEST_F(AnnotationStoreTest, CommitAssignsIdsAndStoresContent) {
  auto id = store_.Commit(Simple("first", "protease active site"));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 1u);
  const Annotation* ann = store_.Get(*id);
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->dc.title, "first");
  EXPECT_EQ(ann->referents.size(), 1u);
  EXPECT_TRUE(store_.HasContent(*ann));
  EXPECT_EQ(store_.size(), 1u);
}

TEST_F(AnnotationStoreTest, CommitRequiresReferents) {
  AnnotationBuilder empty;
  empty.Title("no refs");
  EXPECT_TRUE(store_.Commit(empty).status().IsInvalidArgument());
}

TEST_F(AnnotationStoreTest, CommitValidatesMarks) {
  AnnotationBuilder bad;
  bad.Title("bad").MarkInterval("chr1", 10, 5);
  EXPECT_TRUE(store_.Commit(bad).status().IsInvalidArgument());
  // Unregistered coordinate system fails before any state change.
  AnnotationBuilder badcs;
  badcs.Title("bad").MarkRegion("nope", spatial::Rect::Make2D(0, 0, 1, 1));
  EXPECT_TRUE(store_.Commit(badcs).status().IsNotFound());
  EXPECT_EQ(store_.size(), 0u);
  EXPECT_EQ(store_.num_referents(), 0u);
}

TEST_F(AnnotationStoreTest, CommitPopulatesSpatialIndexes) {
  ASSERT_TRUE(store_.Commit(Simple("a", "x", "chr1", 0, 10)).ok());
  ASSERT_TRUE(store_.Commit(Simple("b", "y", "chr1", 5, 15)).ok());
  ASSERT_TRUE(store_.Commit(Simple("c", "z", "chr2", 0, 10)).ok());

  EXPECT_EQ(indexes_.num_interval_trees(), 2u);
  EXPECT_EQ(indexes_.QueryIntervals("chr1", {7, 8}).size(), 2u);

  AnnotationBuilder region;
  region.Title("r").MarkRegion("atlas", spatial::Rect::Make2D(0, 0, 5, 5));
  ASSERT_TRUE(store_.Commit(region).ok());
  EXPECT_EQ(indexes_.num_rtrees(), 1u);
}

TEST_F(AnnotationStoreTest, SharedReferentDeduplication) {
  // Two annotations marking the identical substructure share one referent —
  // this is what makes them "indirectly related" (§I).
  ASSERT_TRUE(store_.Commit(Simple("a", "x", "chr1", 100, 200)).ok());
  ASSERT_TRUE(store_.Commit(Simple("b", "y", "chr1", 100, 200)).ok());
  EXPECT_EQ(store_.num_referents(), 1u);

  auto rid = store_.FindReferent(
      substructure::Substructure::MakeInterval("chr1", {100, 200}));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(store_.GetReferent(*rid)->refcount, 2u);
  EXPECT_EQ(store_.AnnotationsOfReferent(*rid), (std::vector<AnnotationId>{1, 2}));

  auto related = graph_.IndirectlyRelatedContents(agraph::NodeRef::Content(1));
  ASSERT_EQ(related.size(), 1u);
  EXPECT_EQ(related[0].id, 2u);
}

// Pairs of unequal substructures that print alike: node sets that differ
// only past the 8th element, and regions whose bounds differ below the
// 6th decimal.
std::vector<substructure::Substructure> LookalikeMarks() {
  return {substructure::Substructure::MakeNodeSet("g1", {1, 2, 3, 4, 5, 6, 7, 8, 9}),
          substructure::Substructure::MakeNodeSet("g1", {1, 2, 3, 4, 5, 6, 7, 8, 10}),
          substructure::Substructure::MakeRegion("atlas", spatial::Rect::Make2D(1e-7, 0, 1, 1)),
          substructure::Substructure::MakeRegion("atlas", spatial::Rect::Make2D(2e-7, 0, 1, 1))};
}

TEST_F(AnnotationStoreTest, DedupComparesSubstructuresExactly) {
  // Each mark gets its own referent, and each annotation points at the
  // substructure it marked.
  const std::vector<substructure::Substructure> marks = LookalikeMarks();
  std::vector<AnnotationId> ids;
  for (const substructure::Substructure& sub : marks) {
    AnnotationBuilder b;
    b.Title("lookalike").Mark(sub);
    auto id = store_.Commit(b);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_EQ(store_.num_referents(), 4u);
  for (size_t i = 0; i < marks.size(); ++i) {
    const Annotation* ann = store_.Get(ids[i]);
    ASSERT_NE(ann, nullptr);
    ASSERT_EQ(ann->referents.size(), 1u);
    EXPECT_EQ(store_.GetReferent(ann->referents[0])->substructure, marks[i]) << i;
    auto found = store_.FindReferent(marks[i]);
    ASSERT_TRUE(found.ok()) << i;
    EXPECT_EQ(*found, ann->referents[0]) << i;
  }

  // Removing one of a lookalike pair releases only its own referent.
  ASSERT_TRUE(store_.Remove(ids[0]).ok());
  EXPECT_EQ(store_.num_referents(), 3u);
  EXPECT_TRUE(store_.FindReferent(marks[0]).status().IsNotFound());
  EXPECT_TRUE(store_.FindReferent(marks[1]).ok());
}

TEST_F(AnnotationStoreTest, SignedZeroBoundsShareOneReferent) {
  // -0.0 == 0.0, so the two regions are equal substructures and the key's
  // hash must agree: one shared referent, not two.
  AnnotationBuilder a;
  a.Title("plus").MarkRegion("atlas", spatial::Rect::Make2D(0.0, 0, 1, 1));
  AnnotationBuilder b;
  b.Title("minus").MarkRegion("atlas", spatial::Rect::Make2D(-0.0, 0, 1, 1));
  ASSERT_TRUE(store_.Commit(a).ok());
  ASSERT_TRUE(store_.Commit(b).ok());
  EXPECT_EQ(store_.num_referents(), 1u);
}

TEST_F(AnnotationStoreTest, NaNRegionRejected) {
  // A NaN bound is not a region: it would overlap every window and never
  // equal itself as a dedup key.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(spatial::Rect::Make2D(nan, 0, 1, 1).valid());
  EXPECT_FALSE(spatial::Rect::Make2D(0, 0, 1, nan).valid());
  AnnotationBuilder b;
  b.Title("nan").MarkRegion("atlas", spatial::Rect::Make2D(nan, 0, 10, 10));
  EXPECT_TRUE(store_.Commit(b).status().IsInvalidArgument());
  EXPECT_EQ(store_.size(), 0u);
  EXPECT_EQ(store_.num_referents(), 0u);
  auto hits = indexes_.QueryRegions("atlas", spatial::Rect::Make2D(0, 0, 10, 10));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST_F(AnnotationStoreTest, DuplicateMarkWithinOneAnnotationCollapses) {
  AnnotationBuilder b;
  b.Title("dup").MarkInterval("chr1", 0, 5).MarkInterval("chr1", 0, 5);
  auto id = store_.Commit(b);
  ASSERT_TRUE(id.ok());
  const Annotation* ann = store_.Get(*id);
  EXPECT_EQ(ann->referents.size(), 1u);
  EXPECT_EQ(store_.GetReferent(ann->referents[0])->refcount, 1u);
}

TEST_F(AnnotationStoreTest, AGraphWiring) {
  AnnotationBuilder b;
  b.Title("wired").Body("text").MarkInterval("chr1", 0, 5, /*object_id=*/42);
  b.OntologyReference("nif", "NIF:0001");
  auto id = store_.Commit(b);
  ASSERT_TRUE(id.ok());

  agraph::NodeRef content = AnnotationStore::ContentNode(*id);
  ASSERT_TRUE(graph_.HasNode(content));
  EXPECT_EQ(store_.NodeLabel(content), "wired");

  auto neighbors = graph_.Neighbors(content);
  ASSERT_EQ(neighbors.size(), 2u);  // referent + term

  const Annotation* ann = store_.Get(*id);
  agraph::NodeRef referent = AnnotationStore::ReferentNode(ann->referents[0]);
  EXPECT_TRUE(graph_.HasEdge(content, referent, kEdgeAnnotates));
  EXPECT_TRUE(graph_.HasEdge(referent, agraph::NodeRef::Object(42), kEdgeOfObject));

  auto term = store_.FindTermNode("nif:NIF:0001");
  ASSERT_TRUE(term.ok());
  EXPECT_TRUE(graph_.HasEdge(content, *term, kEdgeRefersTo));
  EXPECT_EQ(store_.TermName(*term), "nif:NIF:0001");
}

TEST_F(AnnotationStoreTest, TermNodesInterned) {
  agraph::NodeRef a = store_.TermNode("nif:X");
  agraph::NodeRef b = store_.TermNode("nif:X");
  agraph::NodeRef c = store_.TermNode("nif:Y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(store_.FindTermNode("nif:Z").status().IsNotFound());
  EXPECT_EQ(store_.TermName(agraph::NodeRef::Term(999)), "");
  EXPECT_EQ(store_.TermName(agraph::NodeRef::Content(1)), "");
}

TEST_F(AnnotationStoreTest, KeywordSearch) {
  ASSERT_TRUE(store_.Commit(Simple("a", "The protease cleaves here")).ok());
  ASSERT_TRUE(store_.Commit(Simple("b", "receptor binding site")).ok());
  ASSERT_TRUE(store_.Commit(Simple("c", "another PROTEASE motif")).ok());

  EXPECT_EQ(store_.SearchKeyword("protease"), (std::vector<AnnotationId>{1, 3}));
  EXPECT_EQ(store_.SearchKeyword("Protease"), (std::vector<AnnotationId>{1, 3}));
  EXPECT_TRUE(store_.SearchKeyword("absent").empty());
  EXPECT_EQ(store_.SearchAllKeywords({"protease", "motif"}),
            (std::vector<AnnotationId>{3}));
}

TEST_F(AnnotationStoreTest, KeywordSearchCoversTitleTagsAndTermRefs) {
  AnnotationBuilder b;
  b.Title("hemagglutinin study").Body("body text");
  b.UserTag("grant", "NIH-123");
  b.OntologyReference("nif", "Cerebellum");
  b.MarkInterval("chr1", 0, 1);
  ASSERT_TRUE(store_.Commit(b).ok());
  EXPECT_EQ(store_.SearchKeyword("hemagglutinin").size(), 1u);
  EXPECT_EQ(store_.SearchKeyword("grant").size(), 1u);
  EXPECT_EQ(store_.SearchKeyword("cerebellum").size(), 1u);
}

TEST_F(AnnotationStoreTest, PhraseSearch) {
  ASSERT_TRUE(store_.Commit(Simple("a", "refers to protein.TP53 directly")).ok());
  ASSERT_TRUE(store_.Commit(Simple("b", "tp53 protein mentioned separately")).ok());
  // The paper's example phrase: "protein. TP53".
  auto hits = store_.SearchPhrase("protein.TP53");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
  // Both share the words.
  EXPECT_EQ(store_.SearchAllKeywords({"protein", "tp53"}).size(), 2u);
}

TEST_F(AnnotationStoreTest, XQuerySearch) {
  ASSERT_TRUE(store_.Commit(Simple("alpha", "protease one")).ok());
  ASSERT_TRUE(store_.Commit(Simple("beta", "unrelated")).ok());
  auto hits = store_.XQuerySearch(
      "for $a in collection()/annotation where contains($a/body, 'protease') return $a");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, (std::vector<AnnotationId>{1}));
  EXPECT_TRUE(store_.XQuerySearch("garbage").status().IsParseError());
}

TEST_F(AnnotationStoreTest, RemoveReleasesEverything) {
  ASSERT_TRUE(store_.Commit(Simple("a", "protease", "chr1", 0, 10)).ok());
  ASSERT_TRUE(store_.Commit(Simple("b", "protease", "chr1", 0, 10)).ok());
  EXPECT_EQ(store_.num_referents(), 1u);

  ASSERT_TRUE(store_.Remove(1).ok());
  // Referent still alive (refcount 1), annotation 1 gone.
  EXPECT_EQ(store_.Get(1), nullptr);
  EXPECT_EQ(store_.num_referents(), 1u);
  EXPECT_EQ(store_.SearchKeyword("protease"), (std::vector<AnnotationId>{2}));
  EXPECT_FALSE(graph_.HasNode(agraph::NodeRef::Content(1)));

  ASSERT_TRUE(store_.Remove(2).ok());
  EXPECT_EQ(store_.num_referents(), 0u);
  EXPECT_EQ(indexes_.num_interval_trees(), 0u);
  EXPECT_TRUE(store_.SearchKeyword("protease").empty());
  EXPECT_TRUE(store_.Remove(2).IsNotFound());
}

TEST_F(AnnotationStoreTest, IdsAndCollection) {
  ASSERT_TRUE(store_.Commit(Simple("a", "one", "chr1", 0, 10)).ok());
  ASSERT_TRUE(store_.Commit(Simple("b", "two", "chr1", 20, 30)).ok());
  EXPECT_EQ(store_.Ids(), (std::vector<AnnotationId>{1, 2}));
  EXPECT_EQ(store_.ReferentIds().size(), 2u);
  EXPECT_EQ(store_.Collection().size(), 2u);
}

TEST_F(AnnotationStoreTest, PhraseSearchVerifiesAgainstContentOnly) {
  // Posting lists index user-tag keys and ontology terms, but phrase search
  // matches the serialized content only — a tag/term-only hit must not
  // survive the substring verification (regression: a "single-token phrase
  // is implied by its posting list" shortcut would skip it).
  AnnotationBuilder b = Simple("t", "hello world");
  b.UserTag("zebraxq", "v");
  ASSERT_TRUE(store_.Commit(b).ok());
  EXPECT_EQ(store_.SearchKeyword("zebraxq").size(), 1u);  // token is indexed
  EXPECT_TRUE(store_.SearchPhrase("zebraxq").empty());    // but not content
  EXPECT_EQ(store_.SearchPhrase("hello").size(), 1u);
}

TEST_F(AnnotationStoreTest, StreamingEnumerationMatchesIds) {
  ASSERT_TRUE(store_.Commit(Simple("a", "one", "chr1", 0, 10)).ok());
  ASSERT_TRUE(store_.Commit(Simple("b", "two", "chr2", 20, 30)).ok());
  ASSERT_TRUE(store_.Commit(Simple("c", "three", "chr1", 40, 50)).ok());

  std::vector<AnnotationId> streamed;
  store_.ForEachAnnotation([&](AnnotationId id, const Annotation& ann) {
    EXPECT_EQ(ann.id, id);
    streamed.push_back(id);
  });
  EXPECT_EQ(streamed, store_.Ids());

  std::vector<ReferentId> refs;
  store_.ForEachReferent([&](ReferentId id, const Referent& ref) {
    EXPECT_EQ(ref.id, id);
    refs.push_back(id);
  });
  EXPECT_EQ(refs, store_.ReferentIds());
}

TEST_F(AnnotationStoreTest, ForEachReferentInDomainIsIndexBacked) {
  ASSERT_TRUE(store_.Commit(Simple("a", "one", "chr1", 0, 10)).ok());
  ASSERT_TRUE(store_.Commit(Simple("b", "two", "chr2", 20, 30)).ok());
  ASSERT_TRUE(store_.Commit(Simple("c", "three", "chr1", 40, 50)).ok());

  auto domain_ids = [&](std::string_view domain) {
    std::vector<ReferentId> out;
    store_.ForEachReferentInDomain(domain, [&](ReferentId id, const Referent& ref) {
      EXPECT_EQ(ref.substructure.domain(), domain);
      out.push_back(id);
    });
    return out;
  };
  EXPECT_EQ(domain_ids("chr1"), (std::vector<ReferentId>{1, 3}));  // ascending
  EXPECT_EQ(domain_ids("chr2"), (std::vector<ReferentId>{2}));
  EXPECT_TRUE(domain_ids("chr9").empty());

  // Removing the last annotation of a referent drops it from the domain list.
  ASSERT_TRUE(store_.Remove(1).ok());
  EXPECT_EQ(domain_ids("chr1"), (std::vector<ReferentId>{3}));
}

TEST_F(AnnotationStoreTest, SetTypedReferentsNotSpatiallyIndexed) {
  AnnotationBuilder b;
  b.Title("sets").MarkNodeSet("g1", {1, 2}).MarkBlockSet("t1", {3}).MarkClade("tr", {0});
  ASSERT_TRUE(store_.Commit(b).ok());
  EXPECT_EQ(store_.num_referents(), 3u);
  EXPECT_EQ(indexes_.num_interval_trees(), 0u);
  EXPECT_EQ(indexes_.num_rtrees(), 0u);
  // But they are first-class a-graph citizens.
  EXPECT_EQ(graph_.NodesOfKind(agraph::NodeKind::kReferent).size(), 3u);
}

// A clone shares each annotation's one content object: the same bytes and
// the same DOM, not a copy of either.
TEST_F(AnnotationStoreTest, CloneSharesContent) {
  AnnotationBuilder b = Simple("shared", "one content object");
  auto id = store_.Commit(b);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  spatial::IndexManager indexes = indexes_.Clone();
  agraph::AGraph graph = graph_.Clone();
  std::unique_ptr<AnnotationStore> copy = store_.Clone(&indexes, &graph);
  const Annotation* mine = store_.Get(*id);
  const Annotation* theirs = copy->Get(*id);
  ASSERT_NE(mine, nullptr);
  ASSERT_NE(theirs, nullptr);
  EXPECT_EQ(store_.ContentXml(*mine), b.BuildContentXml(*id)->ToString(false));
  EXPECT_EQ(copy->ContentXml(*theirs), store_.ContentXml(*mine));
  EXPECT_EQ(&copy->ContentOf(*theirs), &store_.ContentOf(*mine));
  ASSERT_NE(store_.ContentOf(*mine).root(), nullptr);
  EXPECT_EQ(store_.ContentOf(*mine).ToString(false), store_.ContentXml(*mine));
}

// Restored content stays unparsed until first read; a parse through either
// of two stores that share it serves both.
TEST_F(AnnotationStoreTest, RestoredContentParsedThroughACloneIsParsedForBoth) {
  AnnotationBuilder b = Simple("restored", "parsed at most once");
  const std::string xml = b.BuildContentXml(5)->ToString(false);
  std::vector<AnnotationStore::RestoredReferent> referents(1);
  referents[0].ref.id = 1;
  referents[0].ref.substructure = b.marks()[0].first;
  referents[0].ref.refcount = 1;
  std::vector<AnnotationStore::RestoredAnnotation> annotations(1);
  Annotation& ann = annotations[0].ann;
  ann.id = 5;
  ann.dc = b.dc();
  ann.body = b.body();
  ann.referents = {1};
  ann.content = std::make_shared<const Content>(xml);
  ASSERT_TRUE(store_
                  .RestoreSnapshotState(std::move(referents), std::move(annotations), {}, {},
                                        /*next_annotation_id=*/6, /*next_referent_id=*/2, {})
                  .ok());
  spatial::IndexManager indexes = indexes_.Clone();
  agraph::AGraph graph = graph_.Clone();
  std::unique_ptr<AnnotationStore> copy = store_.Clone(&indexes, &graph);

  const xml::XmlDocument& parsed = copy->ContentOf(*copy->Get(5));
  ASSERT_NE(parsed.root(), nullptr);
  EXPECT_EQ(&store_.ContentOf(*store_.Get(5)), &parsed);
  EXPECT_EQ(parsed.ToString(false), xml);
  EXPECT_EQ(store_.ContentXml(*store_.Get(5)), xml);
  EXPECT_TRUE(store_.HasContent(*store_.Get(5)));
}

}  // namespace
}  // namespace annotation
}  // namespace graphitti
