#include <gtest/gtest.h>

#include <optional>

#include "core/graphitti.h"

namespace graphitti {
namespace core {
namespace {

using annotation::AnnotationBuilder;
using relational::CompareOp;
using relational::Predicate;
using relational::Value;

TEST(GraphittiTest, BuiltinTablesRegistered) {
  Graphitti g;
  EXPECT_NE(g.catalog().GetTable(kTableDna), nullptr);
  EXPECT_NE(g.catalog().GetTable(kTableRna), nullptr);
  EXPECT_NE(g.catalog().GetTable(kTableProtein), nullptr);
  EXPECT_NE(g.catalog().GetTable(kTableImage), nullptr);
  EXPECT_NE(g.catalog().GetTable(kTablePhyloTree), nullptr);
  EXPECT_NE(g.catalog().GetTable(kTableInteractionGraph), nullptr);
  EXPECT_NE(g.catalog().GetTable(kTableMsa), nullptr);
  EXPECT_TRUE(g.catalog().GetTable(kTableDna)->HasIndex("accession"));
}

TEST(GraphittiTest, IngestSequencesRegistersObjects) {
  Graphitti g;
  auto obj = g.IngestDnaSequence("AF001", "H5N1", "flu:seg4", "ACGTACGT");
  ASSERT_TRUE(obj.ok());
  const ObjectInfo* info = g.GetObject(*obj);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->table, kTableDna);
  EXPECT_EQ(info->label, "dna_sequences/AF001");
  EXPECT_TRUE(g.graph().HasNode(agraph::NodeRef::Object(*obj)));

  std::optional<relational::Row> row = g.GetObjectRow(*obj);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[3].as_int(), 8);  // length column derived from residues
  EXPECT_EQ(g.DescribeObject(*obj), "dna_sequences/AF001");
  EXPECT_EQ(g.DescribeObject(9999), "object-9999");
}

TEST(GraphittiTest, IngestOtherTypes) {
  Graphitti g;
  EXPECT_TRUE(g.IngestRnaSequence("R1", "H1N1", "flu:seg1", "ACGU").ok());
  EXPECT_TRUE(g.IngestProteinSequence("P1", "H5N1", "HA", "MKTII").ok());
  EXPECT_TRUE(g.IngestPhyloTree("t1", "(A,B);").ok());
  EXPECT_TRUE(g.IngestPhyloTree("bad", "(((").status().IsParseError());

  InteractionGraph ig("ppi");
  uint64_t a = *ig.AddNode("HA");
  uint64_t b = *ig.AddNode("NA");
  ASSERT_TRUE(ig.AddEdge(a, b).ok());
  EXPECT_TRUE(g.IngestInteractionGraph(ig).ok());
  EXPECT_TRUE(g.IngestInteractionGraph(InteractionGraph("")).status().IsInvalidArgument());

  Msa msa;
  msa.name = "aln1";
  msa.rows = {{"s1", "AC-GT"}, {"s2", "ACGGT"}};
  EXPECT_TRUE(g.IngestMsa(msa).ok());
  msa.rows.push_back({"s3", "AC"});
  EXPECT_TRUE(g.IngestMsa(msa).status().IsInvalidArgument());
}

TEST(GraphittiTest, ImagesNeedCoordinateSystem) {
  Graphitti g;
  EXPECT_TRUE(g.IngestImage("img", "atlas", "confocal", 100, 100, 10).status().IsNotFound());
  ASSERT_TRUE(g.RegisterCoordinateSystem("atlas", 3).ok());
  EXPECT_TRUE(g.IngestImage("img", "atlas", "confocal", 100, 100, 10).ok());
}

TEST(GraphittiTest, CustomTablesAndRecords) {
  Graphitti g;
  auto table = g.CreateTable(
      "experiments", relational::SchemaBuilder().Str("name", false).Int("trial").Build());
  ASSERT_TRUE(table.ok());
  auto obj = g.IngestRecord("experiments", {Value::Str("exp1"), Value::Int(3)});
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(g.GetObject(*obj)->label, "experiments/row0");
  EXPECT_TRUE(g.IngestRecord("missing", {Value::Int(1)}).status().IsNotFound());
  EXPECT_TRUE(
      g.IngestRecord("experiments", {Value::Int(5), Value::Int(1)}).status().IsTypeError());
}

TEST(GraphittiTest, SearchObjectsUsesMetadata) {
  Graphitti g;
  ASSERT_TRUE(g.IngestDnaSequence("A1", "H5N1", "s1", "ACGT").ok());
  ASSERT_TRUE(g.IngestDnaSequence("A2", "H3N2", "s1", "ACGTAC").ok());
  ASSERT_TRUE(g.IngestDnaSequence("A3", "H5N1", "s2", "AC").ok());

  auto h5 = g.SearchObjects(kTableDna, Predicate::Eq("organism", Value::Str("H5N1")));
  ASSERT_TRUE(h5.ok());
  EXPECT_EQ(h5->size(), 2u);
  auto longer =
      g.SearchObjects(kTableDna, Predicate::Compare("length", CompareOp::kGt, Value::Int(3)));
  ASSERT_TRUE(longer.ok());
  EXPECT_EQ(longer->size(), 2u);
  EXPECT_TRUE(g.SearchObjects("nope", Predicate::True()).status().IsNotFound());
}

TEST(GraphittiTest, OntologyLifecycle) {
  Graphitti g;
  const char* obo = "[Term]\nid: X:0\nname: root\n\n[Term]\nid: X:1\nname: a\nis_a: X:0\n";
  ASSERT_TRUE(g.LoadOntology("x", obo).ok());
  EXPECT_TRUE(g.LoadOntology("x", obo).status().IsAlreadyExists());
  EXPECT_TRUE(g.LoadOntology("bad", "[Term]\nname: noid\n").status().IsParseError());
  ASSERT_NE(g.GetOntology("x"), nullptr);
  EXPECT_EQ(g.GetOntology("nope"), nullptr);
  EXPECT_EQ(g.OntologyNames(), (std::vector<std::string>{"x"}));

  auto below = g.ExpandTermBelow("x:X:0");
  EXPECT_EQ(below, (std::vector<std::string>{"x:X:0", "x:X:1"}));
  // Unknown ontology or term falls back to the input.
  EXPECT_EQ(g.ExpandTermBelow("nope:T"), (std::vector<std::string>{"nope:T"}));
  EXPECT_EQ(g.ExpandTermBelow("x:MISSING"), (std::vector<std::string>{"x:MISSING"}));
  EXPECT_EQ(g.ExpandTermBelow("no-colon"), (std::vector<std::string>{"no-colon"}));
}

TEST(GraphittiTest, CommitAndAnnotationsOnObject) {
  Graphitti g;
  uint64_t obj = *g.IngestDnaSequence("A1", "H5N1", "flu:seg4", std::string(2000, 'A'));

  AnnotationBuilder b;
  b.Title("gene mark").Body("protease site").MarkInterval("flu:seg4", 100, 200, obj);
  auto id = g.Commit(b);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  EXPECT_EQ(g.AnnotationsOnObject(obj), (std::vector<annotation::AnnotationId>{*id}));
  EXPECT_TRUE(g.AnnotationsOnObject(999).empty());
  ASSERT_TRUE(g.RemoveAnnotation(*id).ok());
  EXPECT_TRUE(g.AnnotationsOnObject(obj).empty());
}

TEST(GraphittiTest, EndToEndQuery) {
  Graphitti g;
  uint64_t obj = *g.IngestDnaSequence("A1", "H5N1", "flu:seg4", std::string(2000, 'A'));
  for (int i = 0; i < 3; ++i) {
    AnnotationBuilder b;
    b.Title("ann" + std::to_string(i))
        .Body(i == 1 ? "has protease keyword" : "plain text")
        .MarkInterval("flu:seg4", i * 300, i * 300 + 100, obj);
    ASSERT_TRUE(g.Commit(b).ok());
  }
  auto r = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->items.size(), 1u);

  // TABLE clause resolves through the facade's ObjectResolver.
  auto r2 = g.Query(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?s IS REFERENT ; ?a ANNOTATES ?s ; "
      "?o TABLE \"dna_sequences\" FILTER organism = 'H5N1' ; ?s OF ?o }");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->items.size(), 3u);

  EXPECT_TRUE(g.Query("NOT A QUERY").status().IsParseError());
}

TEST(GraphittiTest, CorrelatedDataView) {
  Graphitti g;
  uint64_t obj = *g.IngestDnaSequence("A1", "H5N1", "flu:seg4", "ACGT");
  AnnotationBuilder b1;
  b1.Title("first").MarkInterval("flu:seg4", 0, 2, obj).OntologyReference("nif", "T1");
  auto id1 = g.Commit(b1);
  AnnotationBuilder b2;
  b2.Title("second").MarkInterval("flu:seg4", 0, 2, obj);  // same referent
  auto id2 = g.Commit(b2);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());

  CorrelatedData corr = g.Correlated(agraph::NodeRef::Content(*id1));
  EXPECT_EQ(corr.annotations, (std::vector<annotation::AnnotationId>{*id2}));
  EXPECT_EQ(corr.referents.size(), 1u);
  EXPECT_EQ(corr.objects, (std::vector<uint64_t>{obj}));
  EXPECT_EQ(corr.terms, (std::vector<std::string>{"nif:T1"}));

  // From the object's perspective.
  CorrelatedData obj_corr = g.Correlated(agraph::NodeRef::Object(obj));
  EXPECT_EQ(obj_corr.referents.size(), 1u);
}

TEST(GraphittiTest, StatsReflectState) {
  Graphitti g;
  SystemStats before = g.Stats();
  EXPECT_EQ(before.num_annotations, 0u);
  EXPECT_EQ(before.num_tables, 7u);

  uint64_t obj = *g.IngestDnaSequence("A1", "H5N1", "flu:seg4", "ACGT");
  AnnotationBuilder b;
  b.Title("x").MarkInterval("flu:seg4", 0, 2, obj);
  ASSERT_TRUE(g.Commit(b).ok());
  ASSERT_TRUE(g.LoadOntology("o", "[Term]\nid: A\n").ok());

  SystemStats after = g.Stats();
  EXPECT_EQ(after.num_objects, 1u);
  EXPECT_EQ(after.num_annotations, 1u);
  EXPECT_EQ(after.num_referents, 1u);
  EXPECT_EQ(after.num_interval_trees, 1u);
  EXPECT_EQ(after.interval_entries, 1u);
  EXPECT_EQ(after.num_ontologies, 1u);
  EXPECT_EQ(after.ontology_terms, 1u);
  EXPECT_GE(after.agraph_nodes, 3u);  // object + content + referent
  EXPECT_FALSE(after.ToString().empty());
  EXPECT_FALSE(g.ExportAGraph().empty());
}

TEST(GraphittiTest, DerivedCoordinateSystems) {
  Graphitti g;
  ASSERT_TRUE(g.RegisterCoordinateSystem("atlas25", 3).ok());
  ASSERT_TRUE(g.RegisterDerivedCoordinateSystem("atlas50", "atlas25", {2, 2, 2}, {0, 0, 0})
                  .ok());
  AnnotationBuilder b;
  b.Title("region").MarkRegion("atlas50", spatial::Rect::Make3D(0, 0, 0, 5, 5, 5));
  ASSERT_TRUE(g.Commit(b).ok());
  EXPECT_EQ(g.indexes().num_rtrees(), 1u);
  EXPECT_NE(g.indexes().GetRTree("atlas25"), nullptr);
}

TEST(GraphittiTest, ObjectRowCopySurvivesCommits) {
  Graphitti g;
  auto obj = g.IngestDnaSequence("AF001", "H5N1", "flu:seg4", "ACGTACGT");
  ASSERT_TRUE(obj.ok());
  std::optional<relational::Row> row = g.GetObjectRow(*obj);
  ASSERT_TRUE(row.has_value());
  // Each of these retires the version the row was read from, and the
  // ingests reuse it as commit scratch and grow its table storage.
  ASSERT_TRUE(g.IngestDnaSequence("AF002", "H1N1", "flu:seg1", "ACG").ok());
  ASSERT_TRUE(g.IngestDnaSequence("AF003", "H3N2", "flu:seg2", "AC").ok());
  ASSERT_EQ(row->size(), 5u);
  EXPECT_EQ((*row)[0].as_string(), "AF001");
  EXPECT_EQ((*row)[1].as_string(), "H5N1");
  EXPECT_EQ((*row)[3].as_int(), 8);
  EXPECT_EQ((*row)[4].as_string(), "ACGTACGT");
  EXPECT_EQ(g.GetObjectRow(*obj), row);
  EXPECT_FALSE(g.GetObjectRow(9999).has_value());
}

TEST(MutateTest, PublishesOneVersionAndKeepsPinnedResults) {
  Graphitti g;
  uint64_t obj = *g.IngestDnaSequence("A1", "H5N1", "flu:seg4", "ACGT");
  AnnotationBuilder b;
  b.Title("kept").Body("protease site").MarkInterval("flu:seg4", 0, 2, obj);
  ASSERT_TRUE(g.Commit(b).ok());
  auto held = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_EQ(held->items.size(), 1u);
  const uint64_t epoch = g.engine_epoch();

  AnnotationBuilder forced;
  forced.Title("forced").Body("protease again").MarkInterval("flu:seg4", 1, 3, obj);
  ASSERT_TRUE(g.Mutate([&](Graphitti::EngineState& s) {
                 return s.store->Commit(forced, /*forced_id=*/40).status();
               }).ok());
  EXPECT_EQ(g.engine_epoch(), epoch + 1);
  EXPECT_EQ(g.Stats().num_annotations, 2u);
  EXPECT_NE(g.annotations().Get(40), nullptr);

  // The result pinned before the Mutate still answers from its version,
  // page flips included; a fresh query sees the new one.
  const auto* pinned = static_cast<const Graphitti::EngineState*>(held->snapshot.get());
  EXPECT_LT(held->snapshot.epoch(), g.engine_epoch());
  EXPECT_EQ(pinned->store->size(), 1u);
  EXPECT_EQ(pinned->store->Get(40), nullptr);
  EXPECT_TRUE(g.MaterializePage(&*held, 1).ok());
  ASSERT_EQ(held->items.size(), 1u);
  EXPECT_EQ(held->items[0].content_id, 1u);
  auto fresh = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->items.size(), 2u);

  // An error from the function publishes nothing; the next commit builds
  // on the mutated version.
  EXPECT_TRUE(g.Mutate([&](Graphitti::EngineState& s) {
                 s.graph.EnsureNode(agraph::NodeRef::Content(999));
                 return util::Status::Internal("abandon");
               }).IsInternal());
  EXPECT_EQ(g.engine_epoch(), epoch + 1);
  EXPECT_FALSE(g.graph().HasNode(agraph::NodeRef::Content(999)));
  auto next = g.Commit(b);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 41u);
  EXPECT_EQ(g.Stats().num_annotations, 3u);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

}  // namespace
}  // namespace core
}  // namespace graphitti
