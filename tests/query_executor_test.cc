#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "annotation/annotation_store.h"
#include "core/graphitti.h"
#include "query/executor.h"
#include "query/parser.h"

namespace graphitti {
namespace query {
namespace {

using annotation::AnnotationBuilder;
using annotation::AnnotationId;

class FakeObjects : public ObjectResolver {
 public:
  util::Result<std::vector<uint64_t>> FindObjects(
      const std::string& table, const relational::Predicate& filter) const override {
    (void)filter;
    if (table == "dna_sequences") return std::vector<uint64_t>{42, 43};
    return util::Status::NotFound("no table " + table);
  }
  std::string DescribeObject(uint64_t id) const override {
    return "obj" + std::to_string(id);
  }
};

class FakeOntologies : public OntologyResolver {
 public:
  std::vector<std::string> ExpandTermBelow(const std::string& qualified) const override {
    if (qualified == "nif:PARENT") return {"nif:PARENT", "nif:CHILD1", "nif:CHILD2"};
    return {qualified};
  }
};

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : store_(&indexes_, &graph_) {}

  void SetUp() override {
    // Four protease annotations on consecutive disjoint intervals of seg4
    // (the Fig. 3 workload), plus noise annotations.
    struct Spec {
      int64_t lo, hi;
      const char* body;
      const char* term;
    };
    const Spec specs[] = {
        {100, 200, "protease motif alpha", "nif:CHILD1"},
        {300, 400, "protease motif beta", "nif:CHILD2"},
        {500, 600, "protease motif gamma", nullptr},
        {700, 800, "protease motif delta", nullptr},
        {150, 350, "receptor overlap noise", nullptr},   // overlaps the first two
        {900, 950, "unrelated body text", "nif:OTHER"},
    };
    int i = 0;
    for (const Spec& s : specs) {
      AnnotationBuilder b;
      b.Title("ann" + std::to_string(i++)).Body(s.body);
      b.MarkInterval("flu:seg4", s.lo, s.hi, /*object_id=*/42);
      if (s.term != nullptr) {
        // OntologyReference takes (ontology, term); split at ':'.
        std::string q(s.term);
        b.OntologyReference(q.substr(0, q.find(':')), q.substr(q.find(':') + 1));
      }
      auto id = store_.Commit(b);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids_.push_back(*id);
    }
  }

  QueryContext Context() {
    QueryContext ctx;
    ctx.store = &store_;
    ctx.indexes = &indexes_;
    ctx.graph = &graph_;
    ctx.objects = &objects_;
    ctx.ontologies = &ontologies_;
    return ctx;
  }

  util::Result<QueryResult> Run(std::string_view text) {
    Executor ex(Context());
    return ex.ExecuteText(text);
  }

  spatial::IndexManager indexes_;
  agraph::AGraph graph_;
  annotation::AnnotationStore store_;
  FakeObjects objects_;
  FakeOntologies ontologies_;
  std::vector<AnnotationId> ids_;
};

TEST_F(ExecutorTest, ContainsFindsContents) {
  auto r = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 4u);
  EXPECT_EQ(r->items[0].content_id, ids_[0]);
}

TEST_F(ExecutorTest, XPathFilter) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a XPATH \"/annotation[contains(body,'gamma')]\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].content_id, ids_[2]);
}

TEST_F(ExecutorTest, SpatialWindowNarrowsReferents) {
  auto r = Run(
      "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"flu:seg4\" ; "
      "?s OVERLAPS [350, 550] }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Intervals overlapping [350,550]: [300,400], [500,600], [150,350].
  EXPECT_EQ(r->items.size(), 3u);
  for (const auto& item : r->items) {
    EXPECT_TRUE(r->SubstructureOf(item)->interval().Overlaps({350, 550}));
  }
}

TEST_F(ExecutorTest, EdgeJoinContentToReferent) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a CONTAINS \"alpha\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ; "
      "?s OVERLAPS [0, 250] ; ?s DOMAIN \"flu:seg4\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].content_id, ids_[0]);
}

TEST_F(ExecutorTest, TermJoin) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM \"nif:CHILD1\" ; ?a REFERS ?t }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->items[0].content_id, ids_[0]);
}

TEST_F(ExecutorTest, TermBelowExpandsOntology) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM BELOW \"nif:PARENT\" ; ?a REFERS ?t }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 2u);  // CHILD1 + CHILD2 annotations
}

TEST_F(ExecutorTest, ObjectJoinViaTable) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ;"
      " ?o TABLE \"dna_sequences\" ; ?s OF ?o }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 4u);  // all protease annotations mark object 42
}

TEST_F(ExecutorTest, TheFigure3ProteaseQuery) {
  // "4 consecutive non-overlapping intervals in the sequence [each having]
  // annotations having the keyword protease".
  auto r = Run(R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?a3 CONTAINS "protease" ; ?a4 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ; ?s3 IS REFERENT ; ?s4 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
      ?a3 ANNOTATES ?s3 ; ?a4 ANNOTATES ?s4 ;
    } CONSTRAIN consecutive(?s1, ?s2, ?s3, ?s4), disjoint(?s1, ?s2, ?s3, ?s4))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Exactly one assignment satisfies the ordering: the four protease marks.
  ASSERT_EQ(r->items.size(), 1u);
  ASSERT_TRUE(r->items[0].subgraph_ready);  // page 1 is materialized eagerly
  const agraph::SubGraph& sg = r->items[0].subgraph;
  EXPECT_GE(sg.nodes.size(), 8u);  // 4 contents + 4 referents
  // Graph target pages one subgraph per page.
  EXPECT_EQ(r->Page().size(), 1u);
  EXPECT_EQ(r->total_pages, 1u);
  EXPECT_EQ(r->stats.subgraphs_materialized, 1u);
}

TEST_F(ExecutorTest, ConstraintsPruneViolations) {
  // Without disjoint, the overlapping noise referent can appear; with
  // overlapping() we find pairs that do overlap.
  auto r = Run(R"(FIND GRAPH WHERE {
      ?s1 IS REFERENT ; ?s1 DOMAIN "flu:seg4" ;
      ?s2 IS REFERENT ; ?s2 DOMAIN "flu:seg4" ;
    } CONSTRAIN overlapping(?s1, ?s2), consecutive(?s1, ?s2))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Pairs (a,b) with a.lo < b.lo and overlap: ([100,200],[150,350]) and
  // ([150,350],[300,400]).
  EXPECT_EQ(r->items.size(), 2u);
}

TEST_F(ExecutorTest, ReferentsTargetReturnsSubstructures) {
  auto r = Run(
      "FIND REFERENTS ?s WHERE { ?a CONTAINS \"alpha\" ; ?s IS REFERENT ; ?a ANNOTATES ?s }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_EQ(r->SubstructureOf(r->items[0])->interval(), spatial::Interval(100, 200));
}

TEST_F(ExecutorTest, FragmentsTarget) {
  auto r = Run(
      "FIND FRAGMENTS ?a XPATH \"/annotation/dc:title\" WHERE "
      "{ ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 4u);
  EXPECT_EQ(r->items[0].fragment, "<dc:title>ann0</dc:title>");
}

TEST_F(ExecutorTest, FragmentsAttributeMatchIsItsValue) {
  auto r = Run(
      "FIND FRAGMENTS ?a XPATH \"/annotation/@id\" WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 4u);
  for (const ResultItem& item : r->items) {
    EXPECT_EQ(item.fragment, std::to_string(item.content_id));
  }
}

// ?s is bound through two join edges: the level keeps only the referent
// both ?a and ?b annotate.
TEST_F(ExecutorTest, VariableBoundThroughTwoJoinEdges) {
  AnnotationBuilder shared;
  shared.Title("shared").Body("shared mark").MarkInterval("flu:seg4", 100, 200,
                                                          /*object_id=*/42);
  ASSERT_TRUE(store_.Commit(shared).ok());
  const char* text =
      "FIND REFERENTS ?s WHERE { ?a CONTAINS \"protease\" ; ?b CONTAINS \"shared\" ; "
      "?a ANNOTATES ?s ; ?b ANNOTATES ?s }";
  for (bool selectivity : {true, false}) {
    ExecutorOptions opts;
    opts.use_selectivity_order = selectivity;
    auto r = Executor(Context(), opts).ExecuteText(text);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->items.size(), 1u);
    EXPECT_EQ(r->SubstructureOf(r->items[0])->interval(), spatial::Interval(100, 200));
    if (!selectivity) {
      // Declaration order binds ?s last, through both edges.
      EXPECT_EQ(r->stats.binding_order, (std::vector<std::string>{"a", "b", "s"}));
    }
  }
}

TEST_F(ExecutorTest, PagingSlicesItems) {
  auto r = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 3 PAGE 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->items.size(), 4u);
  EXPECT_EQ(r->Page().size(), 3u);
  EXPECT_EQ(r->total_pages, 2u);
  auto r2 = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 3 PAGE 2");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->Page().size(), 1u);
  EXPECT_EQ(r2->Page()[0].content_id, r2->items[3].content_id);
  // Page overflow clamps to the last page.
  auto r3 = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 3 PAGE 99");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->page, 2u);
}

TEST_F(ExecutorTest, PageZeroFromContextApiClampsToFirstPage) {
  // The parser guards PAGE >= 1, but a programmatically built Query does
  // not; page == 0 used to underflow (page - 1) * page_size to SIZE_MAX.
  auto q = ParseQuery("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 3 PAGE 1");
  ASSERT_TRUE(q.ok());
  q->page = 0;
  Executor ex(Context());
  auto r = ex.Execute(*q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->page, 1u);
  EXPECT_EQ(r->Page().size(), 3u);
  EXPECT_EQ(r->Page()[0].content_id, r->items[0].content_id);
}

TEST_F(ExecutorTest, SelectivityOrderBindsSmallSetsFirst) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?b CONTAINS \"alpha\" ; ?a CONNECTED ?b }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // ?b has 1 candidate, ?a has 6; selectivity order binds ?b first.
  ASSERT_EQ(r->stats.binding_order.size(), 2u);
  EXPECT_EQ(r->stats.binding_order[0], "b");
}

TEST_F(ExecutorTest, NaiveOrderFollowsDeclaration) {
  ExecutorOptions opts;
  opts.use_selectivity_order = false;
  Executor ex(Context(), opts);
  auto r = ex.ExecuteText(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?b CONTAINS \"alpha\" ; ?a CONNECTED ?b }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.binding_order[0], "a");
  EXPECT_GE(r->stats.rows_examined, 6u);
}

TEST_F(ExecutorTest, StatsTrackCandidatesAndRows) {
  auto r = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->stats.candidate_counts.size(), 1u);
  EXPECT_EQ(r->stats.candidate_counts[0], 4u);
  EXPECT_EQ(r->stats.items_produced, 4u);
}

TEST_F(ExecutorTest, ErrorPaths) {
  // Unknown kind inference.
  EXPECT_TRUE(Run("FIND CONTENTS WHERE { ?a CONNECTED ?b }").status().IsInvalidArgument());
  // Conflicting kinds.
  EXPECT_TRUE(Run("FIND CONTENTS WHERE { ?a CONTAINS \"x\" ; ?a TYPE interval }")
                  .status()
                  .IsTypeError());
  // Constraint on non-referent variable.
  EXPECT_TRUE(Run("FIND GRAPH WHERE { ?a IS CONTENT ; ?b IS CONTENT } "
                  "CONSTRAIN disjoint(?a, ?b)")
                  .status()
                  .IsTypeError());
  // Constraint on unknown variable.
  EXPECT_TRUE(Run("FIND GRAPH WHERE { ?s IS REFERENT } CONSTRAIN disjoint(?s, ?zz)")
                  .status()
                  .IsInvalidArgument());
  // Unknown target var.
  EXPECT_TRUE(Run("FIND CONTENTS ?zz WHERE { ?a IS CONTENT }").status().IsInvalidArgument());
  // No content variable for a CONTENTS target.
  EXPECT_TRUE(Run("FIND CONTENTS WHERE { ?s IS REFERENT }").status().IsInvalidArgument());
  // Missing context pieces.
  QueryContext empty;
  Executor broken(empty);
  EXPECT_TRUE(broken.ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT }")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ExecutorTest, InvalidTargetFailsBeforeTheJoin) {
  // Each WHERE block below binds a variable with 6 candidates first, so its
  // join would overflow this 2-row limit. The invalid target must be
  // reported instead: it is checked before any candidate or join work.
  ExecutorOptions tight;
  tight.max_intermediate_rows = 2;
  Executor ex(Context(), tight);
  // Unknown target variable.
  EXPECT_TRUE(
      ex.ExecuteText("FIND CONTENTS ?zz WHERE { ?a IS CONTENT }").status().IsInvalidArgument());
  // FRAGMENTS XPath that does not compile.
  EXPECT_TRUE(ex.ExecuteText("FIND FRAGMENTS ?a XPATH \"/annotation/[\" WHERE { ?a IS CONTENT }")
                  .status()
                  .IsParseError());
  // No variable of the result kind.
  auto none = ex.ExecuteText(
      "FIND CONTENTS WHERE { ?s1 IS REFERENT ; ?s2 IS REFERENT ; ?s1 CONNECTED ?s2 }");
  EXPECT_TRUE(none.status().IsInvalidArgument()) << none.status().ToString();
  // The same WHERE blocks with valid targets do reach the row limit.
  EXPECT_TRUE(ex.ExecuteText("FIND CONTENTS ?a WHERE { ?a IS CONTENT }").status().IsOutOfRange());
  EXPECT_TRUE(ex.ExecuteText("FIND REFERENTS WHERE { ?s1 IS REFERENT ; ?s2 IS REFERENT ; "
                             "?s1 CONNECTED ?s2 }")
                  .status()
                  .IsOutOfRange());
}

TEST_F(ExecutorTest, ResolverlessContextRejectsTableAndBelow) {
  QueryContext ctx = Context();
  ctx.objects = nullptr;
  ctx.ontologies = nullptr;
  Executor ex(ctx);
  EXPECT_TRUE(ex.ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT ; "
                             "?o TABLE \"dna_sequences\" ; ?a CONNECTED ?o }")
                  .status()
                  .IsUnsupported());
  EXPECT_TRUE(ex.ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT ; "
                             "?t TERM BELOW \"nif:PARENT\" ; ?a REFERS ?t }")
                  .status()
                  .IsUnsupported());
}

TEST_F(ExecutorTest, RowLimitGuard) {
  ExecutorOptions opts;
  opts.max_intermediate_rows = 2;
  Executor ex(Context(), opts);
  auto r = ex.ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT ; ?b IS CONTENT ; "
                          "?c IS CONTENT ; ?a CONNECTED ?b }");
  EXPECT_TRUE(r.status().IsOutOfRange());
}

TEST_F(ExecutorTest, RowLimitBoundaryIsInclusive) {
  // The fixture holds exactly 6 annotations, so binding ?a materializes a
  // 6-row level: a limit of exactly 6 must pass, 5 must fail.
  ExecutorOptions at_limit;
  at_limit.max_intermediate_rows = 6;
  auto ok = Executor(Context(), at_limit).ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT }");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->items.size(), 6u);
  EXPECT_EQ(ok->stats.peak_rows, 6u);

  ExecutorOptions one_under;
  one_under.max_intermediate_rows = 5;
  auto fail =
      Executor(Context(), one_under).ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT }");
  EXPECT_TRUE(fail.status().IsOutOfRange());
}

TEST_F(ExecutorTest, PeakStatsTrackBindingTable) {
  auto r = Run(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; ?a ANNOTATES ?s }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 4 protease contents, each annotating one referent: both levels hold 4
  // rows, and the columnar table stores every level (values + parents).
  EXPECT_EQ(r->stats.peak_rows, 4u);
  EXPECT_GT(r->stats.peak_bytes, 0u);
  EXPECT_LE(r->stats.peak_bytes,
            r->stats.rows_examined * (sizeof(agraph::NodeRef) + sizeof(uint32_t)));
}

TEST_F(ExecutorTest, SemiJoinReducesReusedCartesianLevel) {
  // Plan: ?a (4 protease contents), ?s joined through ANNOTATES (4 rows),
  // then ?b by cartesian product over its 4 candidates for each of the 4
  // rows, then ?t joined through ANNOTATES. ?t's window [0, 650] holds the
  // referents of ann0, ann1, ann2 and the noise, but not ann3's [700, 800],
  // so ?b = ann3 has no ANNOTATES neighbour among ?t's candidates: the
  // reduction drops it before the 4 x 4 product is built.
  const char* where = R"(WHERE {
      ?a CONTAINS "protease" ; ?s IS REFERENT ; ?a ANNOTATES ?s ;
      ?b CONTAINS "motif" ; ?t IS REFERENT ; ?t DOMAIN "flu:seg4" ;
      ?t OVERLAPS [0, 650] ; ?b ANNOTATES ?t ; })";
  auto r = Run(std::string("FIND GRAPH ") + where + " LIMIT 100 PAGE 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.binding_order, (std::vector<std::string>{"a", "s", "b", "t"}));
  EXPECT_EQ(r->stats.candidate_counts, (std::vector<size_t>{4, 6, 4, 4}));
  // 4 + 4 + (4 rows x 3 kept ?b candidates) + 12; unreduced, ?b's level
  // held 16 rows, 4 of which died at ?t.
  EXPECT_EQ(r->stats.level_rows, (std::vector<size_t>{4, 4, 12, 12}));
  EXPECT_EQ(r->stats.rows_examined, 32u);
  EXPECT_EQ(r->stats.peak_rows, 12u);

  // Items: the distinct terminal sets of rows (?a, ?b) in binding order,
  // first occurrences only ((1,0) repeats (0,1), and so on).
  auto mark = [&](size_t i) {
    return agraph::NodeRef::Referent(store_.Get(ids_[i])->referents[0]);
  };
  const std::vector<std::pair<size_t, size_t>> pairs = {
      {0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}, {3, 0}, {3, 1}, {3, 2}};
  ASSERT_EQ(r->items.size(), pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    auto [x, y] = pairs[k];
    std::vector<agraph::NodeRef> want = {agraph::NodeRef::Content(ids_[x]), mark(x),
                                         agraph::NodeRef::Content(ids_[y]), mark(y)};
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const auto& t = r->items[k].terminals;
    EXPECT_EQ(std::vector<agraph::NodeRef>(t.begin(), t.end()), want) << "item " << k;
  }

  auto contents = Run(std::string("FIND CONTENTS ?b ") + where);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents->items.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(contents->items[i].content_id, ids_[i]);

  // Explain shows the kept rows on each bind line.
  auto plan = Executor(Context()).ExplainText(std::string("FIND COUNT ") + where);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("3. bind ?b  (candidates: 4, rows: 12)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("rows examined: 32"), std::string::npos) << *plan;
}

TEST_F(ExecutorTest, SemiJoinLeavesFirstLevelAlone) {
  // A cartesian first level has one parent row, so it is not reduced: ?b
  // keeps all 4 candidates and ann3's row dies at ?t, as without the pass.
  auto r = Run(R"(FIND CONTENTS ?b WHERE {
      ?b CONTAINS "motif" ; ?t IS REFERENT ; ?t DOMAIN "flu:seg4" ;
      ?t OVERLAPS [0, 650] ; ?b ANNOTATES ?t })");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.binding_order, (std::vector<std::string>{"b", "t"}));
  EXPECT_EQ(r->stats.level_rows, (std::vector<size_t>{4, 3}));
  EXPECT_EQ(r->stats.rows_examined, 7u);
  ASSERT_EQ(r->items.size(), 3u);
}

TEST_F(ExecutorTest, ConnectedHonorsHopBudget) {
  // Two protease contents connect through referents and the shared data
  // object (content - referent - object - referent - content = 4 hops).
  const char* q =
      "FIND CONTENTS WHERE { ?a CONTAINS \"alpha\" ; ?b CONTAINS \"beta\" ; "
      "?a CONNECTED ?b }";
  auto within = Run(q);  // default hop budget is 6
  ASSERT_TRUE(within.ok()) << within.status().ToString();
  EXPECT_EQ(within->items.size(), 1u);

  ExecutorOptions tight;
  tight.default_connected_hops = 3;
  auto beyond = Executor(Context(), tight).ExecuteText(q);
  ASSERT_TRUE(beyond.ok());
  EXPECT_TRUE(beyond->items.empty());
}

TEST_F(ExecutorTest, EmptyResultIsOkNotError) {
  auto r = Run("FIND CONTENTS WHERE { ?a CONTAINS \"zzz-no-such-keyword\" }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->items.empty());
  EXPECT_TRUE(r->Page().empty());
  // Zero results means zero pages — Explain must not claim a page exists.
  EXPECT_EQ(r->total_pages, 0u);
  EXPECT_EQ(r->page, 0u);
}

TEST_F(ExecutorTest, GraphCollationIsLazyPerPage) {
  // Pair query: 4 protease annotations x 4 give 16 binding rows, deduped
  // on the unordered terminal set to 10 distinct rows over 5 pages.
  const char* q = R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
    } LIMIT 2 PAGE 1)";
  auto r = Run(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 10u);
  EXPECT_EQ(r->total_pages, 5u);
  // Subgraph construction is proportional to the requested page, not the
  // result size: only page 1's two rows were materialized.
  EXPECT_EQ(r->stats.subgraphs_materialized, 2u);
  for (size_t i = 0; i < r->items.size(); ++i) {
    EXPECT_EQ(r->items[i].subgraph_ready, i < 2) << "item " << i;
    EXPECT_FALSE(r->items[i].terminals.empty()) << "item " << i;
    if (i >= 2) {
      // Collation builds no label: an off-page item has none until its
      // page is materialized.
      EXPECT_TRUE(r->items[i].subgraph.nodes.empty()) << "item " << i;
      EXPECT_TRUE(r->LabelOf(r->items[i]).empty())
          << "item " << i << ": " << r->LabelOf(r->items[i]);
    } else {
      EXPECT_EQ(r->LabelOf(r->items[i]).rfind("subgraph(", 0), 0u) << r->LabelOf(r->items[i]);
    }
  }
  // A flip labels exactly the rows it materializes.
  ASSERT_TRUE(Executor(Context()).MaterializePage(&*r, 4).ok());
  EXPECT_EQ(r->stats.subgraphs_materialized, 4u);
  for (const ResultItem& item : r->Page()) {
    EXPECT_TRUE(item.subgraph_ready);
    EXPECT_EQ(r->LabelOf(item).rfind("subgraph(", 0), 0u) << r->LabelOf(item);
  }
  for (size_t i = 0; i < r->items.size(); ++i) {
    bool built = i < 2 || (i >= 6 && i < 8);
    EXPECT_EQ(r->LabelOf(r->items[i]).empty(), !built) << "item " << i;
  }
}

TEST_F(ExecutorTest, MaterializePageIsOrderIndependent) {
  const char* q = R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
    } LIMIT 2 PAGE 1)";
  Executor ex(Context());
  // (a) jump straight to page 3; (b) flip through page 2 first.
  auto direct = ex.ExecuteText(q);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(ex.MaterializePage(&*direct, 3).ok());
  auto flipped = ex.ExecuteText(q);
  ASSERT_TRUE(flipped.ok());
  ASSERT_TRUE(ex.MaterializePage(&*flipped, 2).ok());
  ASSERT_TRUE(ex.MaterializePage(&*flipped, 3).ok());
  EXPECT_EQ(direct->page, 3u);
  EXPECT_EQ(flipped->page, 3u);
  ASSERT_EQ(direct->Page().size(), flipped->Page().size());
  for (size_t i = 0; i < direct->Page().size(); ++i) {
    ASSERT_TRUE(direct->Page()[i].subgraph_ready);
    ASSERT_TRUE(flipped->Page()[i].subgraph_ready);
    // Page 3's subgraphs are bit-identical whether or not page 2 was
    // materialized first, and identical to a per-row Connect on the handle.
    EXPECT_EQ(direct->Page()[i].subgraph.nodes, flipped->Page()[i].subgraph.nodes);
    EXPECT_EQ(direct->Page()[i].subgraph.edges, flipped->Page()[i].subgraph.edges);
    const auto& t = direct->Page()[i].terminals;
    auto per_row = graph_.Connect(std::vector<agraph::NodeRef>(t.begin(), t.end()));
    ASSERT_TRUE(per_row.ok());
    EXPECT_EQ(direct->Page()[i].subgraph.nodes, per_row->nodes);
    EXPECT_EQ(direct->Page()[i].subgraph.edges, per_row->edges);
  }
  // Re-materializing an already-built page is a no-op.
  size_t built = flipped->stats.subgraphs_materialized;
  ASSERT_TRUE(ex.MaterializePage(&*flipped, 2).ok());
  EXPECT_EQ(flipped->stats.subgraphs_materialized, built);
}

TEST_F(ExecutorTest, SelectivityAndNaiveOrdersAgreeOnResults) {
  const char* q =
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s ; ?s OVERLAPS [0, 450] ; ?s DOMAIN \"flu:seg4\" }";
  ExecutorOptions naive;
  naive.use_selectivity_order = false;
  auto fast = Executor(Context()).ExecuteText(q);
  auto slow = Executor(Context(), naive).ExecuteText(q);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  std::vector<AnnotationId> a, b;
  for (const auto& i : fast->items) a.push_back(i.content_id);
  for (const auto& i : slow->items) b.push_back(i.content_id);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(ExecutorTest, OrderingsAgreeOnMultiVariableJoins) {
  // Four variables, two join edges, constraints and a GRAPH target: the
  // binding orders differ, the collated result sets must not.
  const char* q = R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
    } CONSTRAIN consecutive(?s1, ?s2), disjoint(?s1, ?s2))";
  ExecutorOptions naive;
  naive.use_selectivity_order = false;
  auto fast = Executor(Context()).ExecuteText(q);
  auto slow = Executor(Context(), naive).ExecuteText(q);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_NE(fast->stats.binding_order, slow->stats.binding_order);

  auto subgraph_keys = [](const QueryResult& r) {
    std::vector<std::vector<agraph::NodeRef>> keys;
    for (const auto& item : r.items) {
      keys.emplace_back(item.terminals.begin(), item.terminals.end());
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(subgraph_keys(*fast), subgraph_keys(*slow));

  // Same check on a 3-variable CONTENTS query through the object join.
  const char* q2 =
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ;"
      " ?o TABLE \"dna_sequences\" ; ?s OF ?o }";
  auto fast2 = Executor(Context()).ExecuteText(q2);
  auto slow2 = Executor(Context(), naive).ExecuteText(q2);
  ASSERT_TRUE(fast2.ok());
  ASSERT_TRUE(slow2.ok());
  std::vector<AnnotationId> a, b;
  for (const auto& i : fast2->items) a.push_back(i.content_id);
  for (const auto& i : slow2->items) b.push_back(i.content_id);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// Every target's label, read through LabelOf: CONTENTS and FRAGMENTS name
// the annotation (its title, or annotation-N without one), REFERENTS the
// substructure, COUNT the variable and its count. A GRAPH row has no label
// until its page is materialized, and a row whose terminals share no
// component reads as disconnected.
TEST_F(ExecutorTest, LabelOfEveryTarget) {
  AnnotationBuilder untitled;
  untitled.Body("isolated note").MarkInterval("flu:seg9", 10, 20, /*object_id=*/99);
  auto lone = store_.Commit(untitled);
  ASSERT_TRUE(lone.ok()) << lone.status().ToString();

  auto contents = Run("FIND CONTENTS WHERE { ?a CONTAINS \"alpha\" }");
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_EQ(contents->items.size(), 1u);
  EXPECT_EQ(contents->LabelOf(contents->items[0]), "ann0");
  EXPECT_EQ(contents->SubstructureOf(contents->items[0]), nullptr);

  auto fallback = Run("FIND CONTENTS WHERE { ?a CONTAINS \"isolated\" }");
  ASSERT_TRUE(fallback.ok());
  ASSERT_EQ(fallback->items.size(), 1u);
  EXPECT_EQ(fallback->LabelOf(fallback->items[0]), "annotation-" + std::to_string(*lone));

  auto fragments = Run(
      "FIND FRAGMENTS ?a XPATH \"/annotation/body\" WHERE { ?a CONTAINS \"motif\" }");
  ASSERT_TRUE(fragments.ok()) << fragments.status().ToString();
  ASSERT_EQ(fragments->items.size(), 4u);
  for (size_t i = 0; i < fragments->items.size(); ++i) {
    EXPECT_EQ(fragments->LabelOf(fragments->items[i]), "ann" + std::to_string(i));
  }

  auto referents = Run("FIND REFERENTS WHERE { ?s DOMAIN \"flu:seg9\" }");
  ASSERT_TRUE(referents.ok()) << referents.status().ToString();
  ASSERT_EQ(referents->items.size(), 1u);
  const substructure::Substructure* sub = referents->SubstructureOf(referents->items[0]);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->interval(), spatial::Interval(10, 20));
  EXPECT_EQ(referents->LabelOf(referents->items[0]), sub->ToString());

  auto count = Run("FIND COUNT ?a WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->items.size(), 1u);
  EXPECT_EQ(count->LabelOf(count->items[0]), "count(?a) = 4");

  // ?b ascends over all seven contents: page 1 is ann0 alone, the last
  // page pairs ann0 with the untitled annotation, which shares no
  // component with it.
  auto graph = Run(
      "FIND GRAPH WHERE { ?a CONTAINS \"alpha\" ; ?b IS CONTENT } LIMIT 1 PAGE 1");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph->items.size(), 7u);
  EXPECT_EQ(graph->LabelOf(graph->items[0]), "subgraph(1 nodes)");
  const ResultItem& last = graph->items.back();
  EXPECT_EQ(std::vector<agraph::NodeRef>(last.terminals.begin(), last.terminals.end()),
            (std::vector<agraph::NodeRef>{agraph::NodeRef::Content(ids_[0]),
                                          agraph::NodeRef::Content(*lone)}));
  EXPECT_EQ(graph->LabelOf(last), "");
  Executor ex(Context());
  ASSERT_TRUE(ex.MaterializePage(&*graph, 7).ok());
  EXPECT_TRUE(last.subgraph_ready);
  EXPECT_EQ(graph->LabelOf(last), "subgraph(disconnected)");
  ASSERT_TRUE(ex.MaterializePage(&*graph, 2).ok());
  const ResultItem& second = graph->items[1];
  ASSERT_FALSE(second.subgraph.nodes.empty());
  EXPECT_EQ(graph->LabelOf(second),
            "subgraph(" + std::to_string(second.subgraph.nodes.size()) + " nodes)");
}

// CONTAINS alone streams the phrase hits without a store lookup; joined
// with CREATOR or XPATH it keeps one per hit, and those filters still
// narrow the hits. A removed annotation is no hit at all.
TEST_F(ExecutorTest, ContainsCombinedWithCreatorOrXPathStillFilters) {
  AnnotationBuilder b;
  b.Title("by alice").Creator("alice").Body("protease motif epsilon");
  b.MarkInterval("flu:seg4", 1000, 1100, /*object_id=*/42);
  auto alice = store_.Commit(b);
  ASSERT_TRUE(alice.ok()) << alice.status().ToString();

  auto by_creator =
      Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?a CREATOR \"alice\" }");
  ASSERT_TRUE(by_creator.ok()) << by_creator.status().ToString();
  ASSERT_EQ(by_creator->items.size(), 1u);
  EXPECT_EQ(by_creator->items[0].content_id, *alice);

  auto by_xpath = Run(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; "
      "?a XPATH \"/annotation[contains(body,'gamma')]\" }");
  ASSERT_TRUE(by_xpath.ok()) << by_xpath.status().ToString();
  ASSERT_EQ(by_xpath->items.size(), 1u);
  EXPECT_EQ(by_xpath->items[0].content_id, ids_[2]);

  ASSERT_TRUE(store_.Remove(ids_[0]).ok());
  auto alone = Run("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(alone.ok());
  std::vector<AnnotationId> got;
  for (const ResultItem& item : alone->items) got.push_back(item.content_id);
  EXPECT_EQ(got, (std::vector<AnnotationId>{ids_[1], ids_[2], ids_[3], *alice}));
}

// A result keeps ids only and reads labels and substructures from the
// version it pinned: held across a commit that removes its annotation, it
// still reads the old title and the removed referent's substructure.
// A GRAPH row handle views the terminal pool its result owns, and copies of
// the result share that pool: a copy, moved on, keeps reading the same
// nodes after the original is gone, and materializes the same subgraphs.
TEST_F(ExecutorTest, GraphRowHandlesOutliveTheOriginalResult) {
  const char* q = R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
    } LIMIT 3 PAGE 1)";
  Executor ex(Context());
  auto run = ex.ExecuteText(q);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto original = std::make_unique<QueryResult>(std::move(*run));
  ASSERT_GT(original->total_pages, 2u);

  QueryResult copy = *original;
  QueryResult moved = std::move(copy);
  EXPECT_EQ(moved.terminal_pool, original->terminal_pool);

  std::vector<std::vector<agraph::NodeRef>> rows;
  for (const ResultItem& item : original->items) {
    rows.emplace_back(item.terminals.begin(), item.terminals.end());
  }
  std::vector<agraph::SubGraph> subgraphs;
  for (size_t page = 1; page <= original->total_pages; ++page) {
    ASSERT_TRUE(ex.MaterializePage(original.get(), page).ok());
    for (const ResultItem& item : original->Page()) subgraphs.push_back(item.subgraph);
  }
  original.reset();

  ASSERT_EQ(moved.items.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& t = moved.items[i].terminals;
    EXPECT_EQ(std::vector<agraph::NodeRef>(t.begin(), t.end()), rows[i]) << "item " << i;
  }
  size_t k = 0;
  for (size_t page = 1; page <= moved.total_pages; ++page) {
    ASSERT_TRUE(ex.MaterializePage(&moved, page).ok());
    for (const ResultItem& item : moved.Page()) {
      ASSERT_LT(k, subgraphs.size());
      EXPECT_TRUE(item.subgraph_ready);
      EXPECT_EQ(item.subgraph.nodes, subgraphs[k].nodes) << "item " << k;
      EXPECT_EQ(item.subgraph.edges, subgraphs[k].edges) << "item " << k;
      ++k;
    }
  }
  EXPECT_EQ(k, subgraphs.size());
}

// Every CONSTRAIN kind against a brute force over referent pairs read from
// the store. The corpus holds intervals in two domains and regions in one
// coordinate system, some overlapping and some only touching (bounds are
// closed, so touching counts as overlapping). Two shapes per kind: only
// the constraint joins the referent variables (?s2 binds at a cartesian
// level), and the Fig. 3 shape, where ?s2 binds through ?a2 ANNOTATES ?s2
// (a join-edge level).
class ConstraintDifferentialTest : public ::testing::Test {
 protected:
  ConstraintDifferentialTest() : store_(&indexes_, &graph_) {}

  void SetUp() override {
    ASSERT_TRUE(indexes_.coordinate_systems().RegisterCanonical("atlas", 2).ok());
    using substructure::Substructure;
    const std::vector<std::vector<Substructure>> marks = {
        {Substructure::MakeInterval("segA", {0, 100})},
        {Substructure::MakeInterval("segA", {100, 200})},  // touches the first
        {Substructure::MakeInterval("segA", {150, 300})},
        {Substructure::MakeInterval("segA", {400, 500}),
         Substructure::MakeInterval("segB", {0, 100})},
        {Substructure::MakeInterval("segA", {50, 60})},
        {Substructure::MakeInterval("segB", {80, 120})},
        {Substructure::MakeInterval("segB", {300, 310}),
         Substructure::MakeRegion("atlas", spatial::Rect::Make2D(30, 30, 40, 40))},
        {Substructure::MakeRegion("atlas", spatial::Rect::Make2D(0, 0, 10, 10))},
        {Substructure::MakeRegion("atlas", spatial::Rect::Make2D(10, 10, 20, 20))},  // corner
        {Substructure::MakeRegion("atlas", spatial::Rect::Make2D(5, 5, 15, 15))},
    };
    for (size_t i = 0; i < marks.size(); ++i) {
      AnnotationBuilder b;
      b.Title("mark" + std::to_string(i)).Body("marked region " + std::to_string(i));
      for (const Substructure& sub : marks[i]) b.Mark(sub);
      ASSERT_TRUE(store_.Commit(b).ok());
    }
  }

  QueryContext Context() {
    QueryContext ctx;
    ctx.store = &store_;
    ctx.indexes = &indexes_;
    ctx.graph = &graph_;
    return ctx;
  }

  // The constraint's meaning, from the geometry alone.
  static bool Holds(const std::string& kind, const substructure::Substructure& a,
                    const substructure::Substructure& b) {
    const bool comparable = a.domain() == b.domain() && a.type() == b.type();
    bool overlap = false;
    if (comparable && a.type() == substructure::SubType::kInterval) {
      overlap = a.interval().lo <= b.interval().hi && b.interval().lo <= a.interval().hi;
    } else if (comparable && a.type() == substructure::SubType::kRegion) {
      overlap = true;
      for (int d = 0; d < a.rect().dims; ++d) {
        overlap = overlap && a.rect().lo[d] <= b.rect().hi[d] && b.rect().lo[d] <= a.rect().hi[d];
      }
    }
    if (kind == "samedomain") return comparable;
    if (kind == "disjoint") return comparable && !overlap;
    if (kind == "overlapping") return comparable && overlap;
    // consecutive: same domain, both intervals, a starts before b.
    return comparable && a.type() == substructure::SubType::kInterval &&
           a.interval().lo < b.interval().lo;
  }

  spatial::IndexManager indexes_;
  agraph::AGraph graph_;
  annotation::AnnotationStore store_;
};

TEST_F(ConstraintDifferentialTest, EveryKindMatchesBruteForce) {
  using agraph::NodeRef;
  using Row = std::vector<NodeRef>;
  // (annotation, referent) for every ANNOTATES edge, and every referent.
  std::vector<std::pair<AnnotationId, annotation::ReferentId>> marks;
  store_.ForEachAnnotation([&](AnnotationId id, const annotation::Annotation& ann) {
    for (annotation::ReferentId r : ann.referents) marks.emplace_back(id, r);
  });
  std::vector<annotation::ReferentId> referents;
  store_.ForEachReferent(
      [&](annotation::ReferentId id, const annotation::Referent&) { referents.push_back(id); });
  ASSERT_EQ(referents.size(), 12u);
  auto sub = [&](annotation::ReferentId r) -> const substructure::Substructure& {
    return store_.GetReferent(r)->substructure;
  };
  auto sorted_unique = [](Row row) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    return row;
  };

  Executor ex(Context());
  for (const std::string kind : {"consecutive", "disjoint", "overlapping", "samedomain"}) {
    const std::string constrain = " CONSTRAIN " + kind + "(?s1, ?s2)";
    // Shape 1: only the constraint joins ?s1 and ?s2.
    std::set<Row> want_rows;
    std::set<annotation::ReferentId> want_s1, want_s2;
    size_t kept = 0;
    for (annotation::ReferentId r1 : referents) {
      for (annotation::ReferentId r2 : referents) {
        if (!Holds(kind, sub(r1), sub(r2))) continue;
        ++kept;
        want_rows.insert(sorted_unique({NodeRef::Referent(r1), NodeRef::Referent(r2)}));
        want_s1.insert(r1);
        want_s2.insert(r2);
      }
    }
    // Shape 2: Fig. 3, each referent reached from the annotation marking it.
    std::set<Row> want_rows2;
    std::set<annotation::ReferentId> want2_s1, want2_s2;
    for (const auto& [a1, r1] : marks) {
      for (const auto& [a2, r2] : marks) {
        if (!Holds(kind, sub(r1), sub(r2))) continue;
        want_rows2.insert(sorted_unique({NodeRef::Content(a1), NodeRef::Referent(r1),
                                         NodeRef::Content(a2), NodeRef::Referent(r2)}));
        want2_s1.insert(r1);
        want2_s2.insert(r2);
      }
    }
    // The constraint keeps some pairs and drops others.
    ASSERT_GT(kept, 0u) << kind;
    ASSERT_LT(kept, referents.size() * referents.size()) << kind;

    struct Shape {
      std::string where;
      std::vector<std::string> order;
      const std::set<Row>* rows;
      const std::set<annotation::ReferentId>* s1;
      const std::set<annotation::ReferentId>* s2;
    };
    const Shape shapes[] = {
        {"WHERE { ?s1 IS REFERENT ; ?s2 IS REFERENT }", {"s1", "s2"}, &want_rows, &want_s1,
         &want_s2},
        {"WHERE { ?a1 CONTAINS \"marked\" ; ?a2 CONTAINS \"marked\" ; ?s1 IS REFERENT ; "
         "?s2 IS REFERENT ; ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 }",
         {"a1", "s1", "a2", "s2"}, &want_rows2, &want2_s1, &want2_s2},
    };
    for (const Shape& shape : shapes) {
      const std::string text = "FIND GRAPH " + shape.where + constrain;
      auto graph = ex.ExecuteText(text);
      ASSERT_TRUE(graph.ok()) << text << ": " << graph.status().ToString();
      EXPECT_EQ(graph->stats.binding_order, shape.order) << text;
      std::vector<Row> got;
      for (const ResultItem& item : graph->items) {
        got.emplace_back(item.terminals.begin(), item.terminals.end());
      }
      std::set<Row> got_set(got.begin(), got.end());
      EXPECT_EQ(got_set.size(), got.size()) << text << ": two items share a terminal set";
      EXPECT_EQ(got_set, *shape.rows) << text;

      for (const char* var : {"s1", "s2"}) {
        const std::string rtext = "FIND REFERENTS ?" + std::string(var) + " " + shape.where +
                                  constrain;
        auto refs = ex.ExecuteText(rtext);
        ASSERT_TRUE(refs.ok()) << rtext << ": " << refs.status().ToString();
        std::set<annotation::ReferentId> got_ids;
        for (const ResultItem& item : refs->items) got_ids.insert(item.referent_id);
        EXPECT_EQ(got_ids.size(), refs->items.size()) << rtext;
        EXPECT_EQ(got_ids, std::string(var) == "s1" ? *shape.s1 : *shape.s2) << rtext;
      }
    }
  }
}

TEST(ResultAccessorsTest, ReadThePinnedVersionAfterALaterRemoval) {
  core::Graphitti g;
  AnnotationBuilder b;
  b.Title("pinned title").Body("ephemeral note");
  b.MarkInterval("flu:seg7", 10, 20);
  auto id = g.Commit(b);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  const std::string contents_query = "FIND CONTENTS WHERE { ?a CONTAINS \"ephemeral\" }";
  const std::string referents_query = "FIND REFERENTS WHERE { ?s DOMAIN \"flu:seg7\" }";
  auto contents = g.Query(contents_query);
  auto referents = g.Query(referents_query);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  ASSERT_TRUE(referents.ok()) << referents.status().ToString();
  ASSERT_EQ(contents->items.size(), 1u);
  ASSERT_EQ(referents->items.size(), 1u);
  const std::string want_sub =
      substructure::Substructure::MakeInterval("flu:seg7", {10, 20}).ToString();
  ASSERT_NE(referents->SubstructureOf(referents->items[0]), nullptr);
  EXPECT_EQ(referents->SubstructureOf(referents->items[0])->ToString(), want_sub);

  ASSERT_TRUE(g.RemoveAnnotation(*id).ok());
  auto contents_now = g.Query(contents_query);
  auto referents_now = g.Query(referents_query);
  ASSERT_TRUE(contents_now.ok());
  ASSERT_TRUE(referents_now.ok());
  EXPECT_TRUE(contents_now->items.empty());
  EXPECT_TRUE(referents_now->items.empty());

  EXPECT_EQ(contents->LabelOf(contents->items[0]), "pinned title");
  const substructure::Substructure* sub = referents->SubstructureOf(referents->items[0]);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->ToString(), want_sub);
  EXPECT_EQ(referents->LabelOf(referents->items[0]), want_sub);
}

}  // namespace
}  // namespace query
}  // namespace graphitti
