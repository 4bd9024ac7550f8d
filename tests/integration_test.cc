// End-to-end scenarios reproducing the demo paper's workflows:
//   - the Fig. 1 influenza a-graph with indirect relatedness,
//   - the Fig. 2 annotation-tab flow (search -> mark -> preview -> commit),
//   - the Fig. 3 query-tab flow, including the paper's two flagship queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>

#include "core/graphitti.h"
#include "core/workload.h"
#include "xml/xpath.h"

namespace graphitti {
namespace core {
namespace {

using annotation::AnnotationBuilder;
using relational::Predicate;
using relational::Value;

/// Appends the text nodes under `node`, lower-cased, each after a space.
void AppendLowerText(const xml::XmlNode* node, std::string* out) {
  if (node == nullptr) return;
  if (node->is_text()) {
    out->push_back(' ');
    for (char c : node->text()) {
      out->push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    return;
  }
  for (const auto& child : node->children()) AppendLowerText(child.get(), out);
}

/// True when `word` occurs in `text` as a whole alphanumeric run.
bool HasWord(const std::string& text, const std::string& word) {
  auto alnum = [&](size_t i) { return std::isalnum(static_cast<unsigned char>(text[i])) != 0; };
  for (size_t at = text.find(word); at != std::string::npos; at = text.find(word, at + 1)) {
    const size_t end = at + word.size();
    if ((at == 0 || !alnum(at - 1)) && (end == text.size() || !alnum(end))) return true;
  }
  return false;
}

TEST(IntegrationTest, Figure2AnnotationTabFlow) {
  Graphitti g;

  // 1. Register data for the Avian Influenza study.
  uint64_t seg4 = *g.IngestDnaSequence("AF144305", "H5N1", "flu:seg4",
                                       std::string(1700, 'A'));
  ASSERT_TRUE(g.LoadOntology("flu", "[Term]\nid: FLU:0\nname: influenza protein\n\n"
                                    "[Term]\nid: FLU:1\nname: hemagglutinin\nis_a: FLU:0\n")
                  .ok());

  // 2. Search window: find the sequence by a type-specific form query.
  auto found = g.SearchObjects(kTableDna, Predicate::Eq("accession",
                                                        Value::Str("AF144305")));
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0], seg4);

  // 3. Drag into the central panel; use the linear interval marker twice
  //    (two subintervals referred to by one annotation).
  AnnotationBuilder b;
  b.Title("HA cleavage site study")
      .Creator("sandeep")
      .Subject("protein.HA")
      .Body("Polybasic cleavage site; protease sensitivity differs across strains.")
      .MarkIntervals("flu:seg4", {{1012, 1034}, {1102, 1120}}, seg4)
      .OntologyReference("flu", "FLU:1");

  // 4. Preview as XML before commit.
  auto preview = b.BuildContentXml();
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(xml::EvaluateXPath("//referent-ref", preview->root()).size(), 2u);
  EXPECT_EQ(xml::EvaluateXPath("//ontology-ref[@term='FLU:1']", preview->root()).size(), 1u);

  // 5. Commit and verify the three stores.
  auto id = g.Commit(b);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(g.Stats().num_referents, 2u);
  EXPECT_EQ(g.indexes().QueryIntervals("flu:seg4", {1000, 1050}).size(), 1u);
  EXPECT_EQ(g.AnnotationsOnObject(seg4), (std::vector<annotation::AnnotationId>{*id}));
}

TEST(IntegrationTest, Figure1IndirectRelatednessAcrossDisciplines) {
  // "If the same referent is connected to two different annotations,
  // possibly by two different scientists, the two annotations become
  // indirectly related."
  Graphitti g;
  uint64_t seq = *g.IngestDnaSequence("A1", "H5N1", "flu:seg4", std::string(500, 'A'));

  AnnotationBuilder virologist;
  virologist.Title("virology note").Creator("alice").Body("reassortment hotspot")
      .MarkInterval("flu:seg4", 100, 150, seq);
  AnnotationBuilder epidemiologist;
  epidemiologist.Title("epi note").Creator("bob").Body("outbreak lineage marker")
      .MarkInterval("flu:seg4", 100, 150, seq);  // the same fragment

  auto a1 = g.Commit(virologist);
  auto a2 = g.Commit(epidemiologist);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());

  // One shared referent; indirect relation visible in the a-graph.
  EXPECT_EQ(g.Stats().num_referents, 1u);
  auto related = g.graph().IndirectlyRelatedContents(agraph::NodeRef::Content(*a1));
  ASSERT_EQ(related.size(), 1u);
  EXPECT_EQ(related[0].id, *a2);

  // path() crosses from one annotation to the other through the referent.
  auto path = g.graph().FindPath(agraph::NodeRef::Content(*a1),
                                 agraph::NodeRef::Content(*a2));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->hops(), 2u);
}

TEST(IntegrationTest, Figure3ProteaseQueryOnGeneratedCorpus) {
  Graphitti g;
  uint64_t obj = *g.IngestDnaSequence("A1", "H5N1", "flu:seg4", std::string(2000, 'A'));

  // Four annotated, consecutive, disjoint protease intervals + decoys.
  const int64_t spans[][2] = {{100, 180}, {300, 380}, {500, 580}, {700, 780}};
  for (auto [lo, hi] : spans) {
    AnnotationBuilder b;
    b.Title("protease interval").Body("protease activity measured here")
        .MarkInterval("flu:seg4", lo, hi, obj);
    ASSERT_TRUE(g.Commit(b).ok());
  }
  AnnotationBuilder decoy;
  decoy.Title("decoy").Body("no keyword of interest")
      .MarkInterval("flu:seg4", 150, 320, obj);
  ASSERT_TRUE(g.Commit(decoy).ok());

  auto r = g.Query(R"(FIND GRAPH WHERE {
      ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
      ?a3 CONTAINS "protease" ; ?a4 CONTAINS "protease" ;
      ?s1 IS REFERENT ; ?s2 IS REFERENT ; ?s3 IS REFERENT ; ?s4 IS REFERENT ;
      ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ; ?a3 ANNOTATES ?s3 ; ?a4 ANNOTATES ?s4 ;
    } CONSTRAIN consecutive(?s1,?s2,?s3,?s4), disjoint(?s1,?s2,?s3,?s4))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->items.size(), 1u);
  EXPECT_GE(r->items[0].subgraph.nodes.size(), 8u);
}

TEST(IntegrationTest, Figure3PairCollationMatchesBruteForce) {
  // The Fig. 3 pair query on each segment of a generated corpus, with and
  // without its constraints, against its answer enumerated by nested loops
  // over the store, without the keyword index, the spatial index or the
  // executor. The loops run in the executor's reported binding order, each
  // variable over its ascending domain, and keep a row when every check
  // whose variables are bound passes: the executor's binding rows in the
  // executor's row order. The items must be the first occurrences of the
  // rows' sorted distinct terminal sets, in that order. Without the
  // constraints the rows (a1,s1,a2,s2) and (a2,s2,a1,s1) share a terminal
  // set, so the dedup is exercised on every segment.
  Graphitti g;
  InfluenzaParams params;
  params.num_annotations = 1000;
  params.protease_fraction = 0.15;
  auto corpus = GenerateInfluenzaStudy(&g, params);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  const annotation::AnnotationStore& store = g.annotations();

  // ?a1 and ?a2 range over the protease annotations, ascending by id.
  // ANNOTATES pairs come from Annotation::referents, kept both ways, sorted.
  std::vector<agraph::NodeRef> contents;
  std::map<uint64_t, std::vector<agraph::NodeRef>> marks_of;   // content -> referents
  std::map<uint64_t, std::vector<agraph::NodeRef>> marked_by;  // referent -> contents
  store.ForEachAnnotation([&](annotation::AnnotationId id, const annotation::Annotation& ann) {
    std::string text;
    AppendLowerText(store.ContentOf(ann).root(), &text);
    if (!HasWord(text, "protease")) return;
    contents.push_back(agraph::NodeRef::Content(id));
    for (annotation::ReferentId rid : ann.referents) {
      marks_of[id].push_back(agraph::NodeRef::Referent(rid));
      marked_by[rid].push_back(agraph::NodeRef::Content(id));
    }
  });
  ASSERT_FALSE(contents.empty());
  for (auto& [id, refs] : marks_of) std::sort(refs.begin(), refs.end());

  using Row = std::vector<agraph::NodeRef>;
  // Variables by index: ?a1, ?s1, ?a2, ?s2.
  const std::vector<std::string> names = {"a1", "s1", "a2", "s2"};
  auto brute_force = [&](const std::vector<agraph::NodeRef>& referents, bool constrained,
                         const std::vector<std::string>& binding_order) {
    // A join that empties early reports a shorter order; the variables it
    // never reached follow in any order, since no row survives anyway.
    std::vector<size_t> order;
    for (const std::string& v : binding_order) {
      order.push_back(std::find(names.begin(), names.end(), v) - names.begin());
    }
    for (size_t i = 0; i < names.size(); ++i) {
      if (std::find(order.begin(), order.end(), i) == order.end()) order.push_back(i);
    }
    agraph::NodeRef bound[4];
    bool is_bound[4] = {false, false, false, false};
    // The constraints, once ?s1 and ?s2 are both bound.
    auto passes = [&]() {
      if (!constrained || !is_bound[1] || !is_bound[3]) return true;
      // consecutive(?s1, ?s2): two intervals of one domain, ?s1 first;
      // disjoint(?s1, ?s2): they do not overlap.
      const substructure::Substructure& s1 = store.GetReferent(bound[1].id)->substructure;
      const substructure::Substructure& s2 = store.GetReferent(bound[3].id)->substructure;
      if (s1.type() != substructure::SubType::kInterval ||
          s2.type() != substructure::SubType::kInterval) {
        return false;
      }
      return s1.interval().lo < s2.interval().lo && !s1.interval().Overlaps(s2.interval());
    };
    std::vector<Row> items;
    std::set<Row> seen;
    std::function<void(size_t)> bind = [&](size_t depth) {
      if (depth == order.size()) {
        Row row(bound, bound + 4);
        std::sort(row.begin(), row.end());
        row.erase(std::unique(row.begin(), row.end()), row.end());
        if (seen.insert(row).second) items.push_back(std::move(row));
        return;
      }
      const size_t v = order[depth];
      // ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2: once v's partner is bound,
      // v ranges over the partner's neighbours within v's domain, the
      // values of the ascending domain that pass the check, in order.
      const size_t partner = v ^ 1;
      static const std::vector<agraph::NodeRef> kNone;
      const std::vector<agraph::NodeRef>* range = (v % 2 == 0) ? &contents : &referents;
      if (is_bound[partner]) {
        auto& index = (v % 2 == 0) ? marked_by : marks_of;
        auto it = index.find(bound[partner].id);
        range = it == index.end() ? &kNone : &it->second;
      }
      is_bound[v] = true;
      for (agraph::NodeRef n : *range) {
        if (v % 2 == 1 && !std::binary_search(referents.begin(), referents.end(), n)) {
          continue;  // a referent of another segment
        }
        bound[v] = n;
        if (passes()) bind(depth + 1);
      }
      is_bound[v] = false;
    };
    bind(0);
    return items;
  };

  auto check = [&](const std::string& text, const std::vector<agraph::NodeRef>& referents,
                   bool constrained) {
    auto r = g.Query(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return size_t{0};
    std::vector<Row> got;
    for (const auto& item : r->items) {
      const Row t(item.terminals.begin(), item.terminals.end());
      EXPECT_TRUE(std::is_sorted(t.begin(), t.end())) << text;
      EXPECT_EQ(std::adjacent_find(t.begin(), t.end()), t.end()) << text;
      got.push_back(t);
    }
    EXPECT_EQ(std::set<Row>(got.begin(), got.end()).size(), got.size())
        << text << ": two items share a terminal set";
    EXPECT_EQ(got, brute_force(referents, constrained, r->stats.binding_order)) << text;
    return got.size();
  };

  size_t nonempty = 0;
  for (const std::string& domain : corpus->segment_domains) {
    // ?s1 and ?s2 range over the segment's referents, ascending by id.
    std::vector<agraph::NodeRef> referents;
    store.ForEachReferent([&](annotation::ReferentId id, const annotation::Referent& ref) {
      if (ref.substructure.domain() == domain) referents.push_back(agraph::NodeRef::Referent(id));
    });
    const std::string where =
        "FIND GRAPH WHERE { ?a1 CONTAINS \"protease\" ; ?a2 CONTAINS \"protease\" ; "
        "?s1 IS REFERENT ; ?s1 DOMAIN \"" + domain + "\" ; ?s2 IS REFERENT ; ?s2 DOMAIN \"" +
        domain + "\" ; ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ; } ";
    if (check(where + "CONSTRAIN consecutive(?s1, ?s2), disjoint(?s1, ?s2) LIMIT 10 PAGE 1",
              referents, true) > 0) {
      ++nonempty;
    }
    check(where + "LIMIT 10 PAGE 1", referents, false);
  }
  // Most segments hold several protease marks, so the comparison is not
  // between empty sequences throughout.
  EXPECT_GE(nonempty, corpus->segment_domains.size() / 2);
}

TEST(IntegrationTest, IntroTP53DeepCerebellarQueryShape) {
  // "Find annotations that contain the term 'protein.TP53' and have paths to
  // all mouse brain images having at least 2 regions annotated with ontology
  // term 'Deep Cerebellar nuclei'."
  Graphitti g;
  ASSERT_TRUE(g.RegisterCoordinateSystem("atlas", 3).ok());
  ASSERT_TRUE(g.LoadOntology("nif",
                             "[Term]\nid: NIF:0000\nname: Brain region\n\n"
                             "[Term]\nid: NIF:0007\nname: Deep Cerebellar nuclei\n"
                             "is_a: NIF:0000\n")
                  .ok());
  uint64_t img1 = *g.IngestImage("brain1", "atlas", "confocal", 512, 512, 32);
  uint64_t img2 = *g.IngestImage("brain2", "atlas", "confocal", 512, 512, 32);

  // img1 gets two DCN-annotated regions; img2 only one.
  auto make_region = [&](uint64_t img, double x, const char* title) {
    AnnotationBuilder b;
    b.Title(title).Body("protein.TP53 expressed in Deep Cerebellar nuclei region")
        .MarkRegion("atlas", spatial::Rect::Make3D(x, 0, 0, x + 10, 10, 10), img)
        .OntologyReference("nif", "NIF:0007");
    return g.Commit(b);
  };
  ASSERT_TRUE(make_region(img1, 0, "r1").ok());
  ASSERT_TRUE(make_region(img1, 100, "r2").ok());
  ASSERT_TRUE(make_region(img2, 200, "r3").ok());

  // Engine query: annotations containing protein.TP53 whose referents sit on
  // images, refined by counting DCN regions per image via the a-graph.
  auto r = g.Query(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protein.TP53\" ; ?t TERM \"nif:NIF:0007\" ; "
      "?a REFERS ?t }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 3u);

  // Count DCN annotations per image through AnnotationsOnObject.
  EXPECT_EQ(g.AnnotationsOnObject(img1).size(), 2u);
  EXPECT_EQ(g.AnnotationsOnObject(img2).size(), 1u);

  // Images with >= 2 annotated regions: only img1; annotations on it reach
  // the TP53 annotations via connect().
  auto sg = g.graph().Connect({agraph::NodeRef::Object(img1),
                               agraph::NodeRef::Content(g.AnnotationsOnObject(img1)[0])});
  ASSERT_TRUE(sg.ok());
  EXPECT_GE(sg->nodes.size(), 3u);
}

TEST(IntegrationTest, CorrelatedDataViewerAcrossTypes) {
  // Fig. 3's right panel: after finding an a-synuclein annotation, explore
  // correlated data (other image, phylo tree clade).
  Graphitti g;
  ASSERT_TRUE(g.RegisterCoordinateSystem("atlas", 2).ok());
  uint64_t img = *g.IngestImage("brain", "atlas", "confocal", 256, 256, 1);
  uint64_t tree = *g.IngestPhyloTree("synuclein_tree", "((mouse,rat)R,human)X;");

  AnnotationBuilder b;
  b.Title("a-synuclein observation")
      .Body("alpha synuclein expression in image and clade")
      .MarkRegion("atlas", spatial::Rect::Make2D(10, 10, 50, 50), img)
      .MarkClade("phylo:synuclein_tree", {1, 2}, tree);
  auto id = g.Commit(b);
  ASSERT_TRUE(id.ok());

  CorrelatedData corr = g.Correlated(agraph::NodeRef::Content(*id));
  EXPECT_EQ(corr.referents.size(), 2u);
  ASSERT_EQ(corr.objects.size(), 2u);
  EXPECT_EQ(corr.objects[0], img);
  EXPECT_EQ(corr.objects[1], tree);
}

TEST(IntegrationTest, FullGeneratedStudyQueries) {
  Graphitti g;
  InfluenzaParams params;
  params.num_annotations = 120;
  params.protease_fraction = 0.3;
  auto corpus = GenerateInfluenzaStudy(&g, params);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  // Keyword query matches the generator's protease fraction.
  auto protease = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(protease.ok());
  EXPECT_GT(protease->items.size(), 10u);
  EXPECT_LT(protease->items.size(), 80u);

  // Spatial window query over a shared segment tree.
  auto window = g.Query(
      "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"flu:seg0\" ; "
      "?s OVERLAPS [0, 1000] }");
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  for (const auto& item : window->items) {
    EXPECT_EQ(window->SubstructureOf(item)->domain(), "flu:seg0");
    EXPECT_TRUE(window->SubstructureOf(item)->interval().Overlaps({0, 1000}));
  }

  // XQuery over the whole annotation collection.
  auto xq = g.annotations().XQuerySearch(
      "for $a in collection()/annotation where contains($a/body, 'protease') return "
      "$a/dc:title");
  ASSERT_TRUE(xq.ok());
  EXPECT_EQ(xq->size(), protease->items.size());

  // GRAPH query produces connection subgraphs with one page each.
  auto graph_result = g.Query(
      "FIND GRAPH WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; ?a ANNOTATES ?s ; "
      "?s DOMAIN \"flu:seg1\" } LIMIT 1 PAGE 1");
  ASSERT_TRUE(graph_result.ok()) << graph_result.status().ToString();
  if (!graph_result->items.empty()) {
    EXPECT_EQ(graph_result->Page().size(), 1u);
    EXPECT_TRUE(graph_result->Page()[0].subgraph_ready);
  }

  // Remove a batch of annotations and confirm the stores shrink consistently.
  size_t before = g.Stats().num_referents;
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(g.RemoveAnnotation(corpus->annotations[i]).ok());
  }
  EXPECT_EQ(g.Stats().num_annotations, params.num_annotations - 30);
  EXPECT_LE(g.Stats().num_referents, before);
}

TEST(IntegrationTest, BrainAtlasSharedRTreeQueries) {
  Graphitti g;
  BrainAtlasParams params;
  params.num_images = 20;
  params.num_annotations = 60;
  auto corpus = GenerateBrainAtlas(&g, params);
  ASSERT_TRUE(corpus.ok());

  // One R-tree despite three coordinate systems.
  EXPECT_EQ(g.Stats().num_rtrees, 1u);

  // Region window query expressed in canonical coordinates.
  auto r = g.Query(
      "FIND REFERENTS WHERE { ?s TYPE region ; ?s DOMAIN \"" + corpus->canonical_system +
      "\" ; ?s OVERLAPS RECT [0,0,0, 10000,10000,10000] }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->items.size(), 0u);

  // TERM BELOW expands over the NIF ontology.
  auto below = g.Query(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM BELOW \"nif:NIF:0000\" ; "
      "?a REFERS ?t }");
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  EXPECT_EQ(below->items.size(), params.num_annotations);
}

}  // namespace
}  // namespace core
}  // namespace graphitti
