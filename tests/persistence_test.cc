#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>

#include "core/graphitti.h"
#include "core/workload.h"
#include "xml/xml_parser.h"
#include "xml/xpath.h"

namespace graphitti {
namespace core {
namespace {

namespace fs = std::filesystem;
using annotation::AnnotationBuilder;
using relational::Predicate;
using relational::Value;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("graphitti_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" +
            std::to_string(counter_++));
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  static int counter_;
};

int PersistenceTest::counter_ = 0;

TEST_F(PersistenceTest, RoundTripsSmallInstance) {
  Graphitti g;
  uint64_t seq = *g.IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGTACGT");
  ASSERT_TRUE(g.RegisterCoordinateSystem("atlas", 3).ok());
  ASSERT_TRUE(g.RegisterDerivedCoordinateSystem("atlas50", "atlas", {2, 2, 2}, {1, 1, 1})
                  .ok());
  uint64_t img = *g.IngestImage("brain", "atlas", "confocal", 64, 64, 4, {1, 2, 3});
  ASSERT_TRUE(g.LoadOntology("nif",
                             "[Term]\nid: NIF:0\nname: region\n\n"
                             "[Term]\nid: NIF:1\nname: DCN\nis_a: NIF:0\n")
                  .ok());

  AnnotationBuilder b1;
  b1.Title("seq mark").Creator("alice").Body("protease site")
      .MarkInterval("flu:seg4", 2, 5, seq)
      .OntologyReference("nif", "NIF:1");
  AnnotationBuilder b2;
  b2.Title("img mark").Creator("bob").Body("region of interest")
      .MarkRegion("atlas50", spatial::Rect::Make3D(0, 0, 0, 4, 4, 4), img)
      .UserTag("confidence", "0.8");
  auto id1 = g.Commit(b1);
  auto id2 = g.Commit(b2);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());

  ASSERT_TRUE(g.SaveTo(dir_.string()).ok());
  auto loaded = Graphitti::LoadFrom(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Graphitti& g2 = **loaded;

  // Stats line up.
  SystemStats s1 = g.Stats();
  SystemStats s2 = g2.Stats();
  EXPECT_EQ(s2.num_annotations, s1.num_annotations);
  EXPECT_EQ(s2.num_referents, s1.num_referents);
  EXPECT_EQ(s2.total_rows, s1.total_rows);
  EXPECT_EQ(s2.num_objects, s1.num_objects);
  EXPECT_EQ(s2.interval_entries, s1.interval_entries);
  EXPECT_EQ(s2.region_entries, s1.region_entries);
  EXPECT_EQ(s2.agraph_nodes, s1.agraph_nodes);
  EXPECT_EQ(s2.agraph_edges, s1.agraph_edges);
  EXPECT_EQ(s2.num_ontologies, 1u);
  EXPECT_EQ(s2.ontology_terms, 2u);

  // Annotation ids and content preserved.
  const annotation::Annotation* ann1 = g2.annotations().Get(*id1);
  ASSERT_NE(ann1, nullptr);
  EXPECT_EQ(ann1->dc.title, "seq mark");
  EXPECT_EQ(ann1->dc.creator, "alice");
  EXPECT_EQ(ann1->ontology_refs.size(), 1u);
  const annotation::Annotation* ann2 = g2.annotations().Get(*id2);
  ASSERT_NE(ann2, nullptr);
  EXPECT_EQ(ann2->user_tags.size(), 1u);
  EXPECT_EQ(ann2->user_tags[0].second, "0.8");

  // Objects preserved with labels and live rows.
  ASSERT_NE(g2.GetObject(seq), nullptr);
  EXPECT_EQ(g2.GetObject(seq)->label, "dna_sequences/AF1");
  std::optional<relational::Row> img_row = g2.GetObjectRow(img);
  ASSERT_TRUE(img_row.has_value());
  EXPECT_EQ((*img_row)[6].as_bytes(), (std::vector<uint8_t>{1, 2, 3}));

  // Queries behave identically.
  auto q1 = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  auto q2 = g2.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->items.size(), q1->items.size());

  // Spatial indexes rebuilt (derived coordinate system included).
  auto regions = g2.indexes().QueryRegions("atlas50", spatial::Rect::Make3D(0, 0, 0, 4, 4, 4));
  ASSERT_TRUE(regions.ok());
  EXPECT_EQ(regions->size(), 1u);

  EXPECT_TRUE(g2.ValidateIntegrity().ok());
}

TEST_F(PersistenceTest, RoundTripsGeneratedCorpus) {
  Graphitti g;
  InfluenzaParams params;
  params.num_annotations = 60;
  auto corpus = GenerateInfluenzaStudy(&g, params);
  ASSERT_TRUE(corpus.ok());

  ASSERT_TRUE(g.SaveTo(dir_.string()).ok());
  auto loaded = Graphitti::LoadFrom(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Graphitti& g2 = **loaded;

  EXPECT_EQ(g2.Stats().num_annotations, g.Stats().num_annotations);
  EXPECT_EQ(g2.Stats().interval_entries, g.Stats().interval_entries);
  EXPECT_EQ(g2.Stats().agraph_edges, g.Stats().agraph_edges);
  EXPECT_EQ(g2.annotations().SearchKeyword("protease"),
            g.annotations().SearchKeyword("protease"));
  ASSERT_TRUE(g2.ValidateIntegrity().ok());

  // New commits continue after the restored id space.
  AnnotationBuilder b;
  b.Title("post-load").MarkInterval("flu:seg0", 0, 5);
  auto id = g2.Commit(b);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, params.num_annotations + 1);
  uint64_t obj = *g2.IngestDnaSequence("NEW", "H9N2", "flu:seg0", "ACGT");
  EXPECT_GT(obj, corpus->sequence_objects.back());
}

TEST_F(PersistenceTest, LoadErrors) {
  EXPECT_TRUE(Graphitti::LoadFrom("/nonexistent/graphitti/dir").status().IsNotFound());
  // A directory with a garbage manifest: the retired XML/TSV layout,
  // refused rather than loaded as an empty engine.
  fs::create_directories(dir_);
  {
    std::ofstream out(dir_ / "manifest.txt");
    out << "not-a-graphitti-save\n";
  }
  EXPECT_TRUE(Graphitti::LoadFrom(dir_.string()).status().IsUnsupported());
}

TEST_F(PersistenceTest, CustomTablesRoundTrip) {
  Graphitti g;
  ASSERT_TRUE(g.CreateTable("experiments", relational::SchemaBuilder()
                                               .Str("name", false)
                                               .Real("score")
                                               .Blob("payload")
                                               .Build())
                  .ok());
  ASSERT_TRUE(g.Mutate([](Graphitti::EngineState& s) {
                 return s.catalog.GetTable("experiments")
                     ->CreateIndex("name", relational::IndexKind::kHash);
               }).ok());
  uint64_t obj = *g.IngestRecord(
      "experiments",
      {Value::Str("exp\twith\ttabs"), Value::Real(0.25), Value::Blob({0xde, 0xad})});
  AnnotationBuilder b;
  b.Title("rec mark").MarkBlockSet("experiments", {0}, obj);
  ASSERT_TRUE(g.Commit(b).ok());

  ASSERT_TRUE(g.SaveTo(dir_.string()).ok());
  auto loaded = Graphitti::LoadFrom(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Graphitti& g2 = **loaded;

  const relational::Table* t = g2.catalog().GetTable("experiments");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->HasIndex("name"));
  EXPECT_EQ(t->GetCell(0, "name").as_string(), "exp\twith\ttabs");
  EXPECT_EQ(t->GetCell(0, "payload").as_bytes(), (std::vector<uint8_t>{0xde, 0xad}));
  EXPECT_DOUBLE_EQ(t->GetCell(0, "score").as_double(), 0.25);
  EXPECT_TRUE(g2.ValidateIntegrity().ok());
}

TEST(BuilderFromXmlTest, RoundTripsAllMarkKinds) {
  AnnotationBuilder b;
  b.Title("full").Creator("x").Subject("s").Body("body text");
  b.UserTag("grade", "A");
  b.UserTag("blank", "");
  b.OntologyReference("nif", "NIF:1");
  b.MarkInterval("chr1", 5, 9, 7);
  b.MarkRegion("atlas", spatial::Rect::Make2D(0.5, 1.5, 2.25, 3.75), 8);
  b.MarkNodeSet("ppi", {4, 2}, 9);
  b.MarkBlockSet("tbl", {11});
  b.MarkClade("tree", {1, 3, 5});

  auto doc = b.BuildContentXml(12);
  ASSERT_TRUE(doc.ok());
  auto rebuilt = AnnotationBuilder::FromContentXml(doc->root());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  EXPECT_EQ(rebuilt->dc().title, "full");
  EXPECT_EQ(rebuilt->body(), "body text");
  EXPECT_EQ(rebuilt->user_tags(), b.user_tags());
  // The serialized form keeps every tag too, the empty-valued one included.
  auto reparsed = xml::ParseXml(doc->ToString(false));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  auto from_text = AnnotationBuilder::FromContentXml(reparsed->root());
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(from_text->user_tags(), b.user_tags());
  EXPECT_EQ(rebuilt->ontology_refs().size(), 1u);
  ASSERT_EQ(rebuilt->marks().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rebuilt->marks()[i].first, b.marks()[i].first) << "mark " << i;
    EXPECT_EQ(rebuilt->marks()[i].second, b.marks()[i].second) << "mark " << i;
  }
}

TEST(BuilderFromXmlTest, RejectsMalformedDocuments) {
  auto not_annotation = xml::XmlNode::Element("other");
  EXPECT_TRUE(
      AnnotationBuilder::FromContentXml(not_annotation.get()).status().IsInvalidArgument());
  EXPECT_TRUE(AnnotationBuilder::FromContentXml(nullptr).status().IsInvalidArgument());

  auto missing_attrs = xml::XmlNode::Element("annotation");
  missing_attrs->AddElement("referent-ref");
  EXPECT_TRUE(
      AnnotationBuilder::FromContentXml(missing_attrs.get()).status().IsParseError());

  auto bad_interval = xml::XmlNode::Element("annotation");
  xml::XmlNode* ref = bad_interval->AddElement("referent-ref");
  ref->SetAttribute("type", "interval");
  ref->SetAttribute("domain", "chr1");
  // no lo/hi attributes
  EXPECT_TRUE(
      AnnotationBuilder::FromContentXml(bad_interval.get()).status().IsParseError());
}

// --- integrity validation & failure injection ---

TEST(IntegrityTest, CleanInstanceValidates) {
  Graphitti g;
  InfluenzaParams params;
  params.num_annotations = 40;
  ASSERT_TRUE(GenerateInfluenzaStudy(&g, params).ok());
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

TEST(IntegrityTest, DetectsDanglingObjectRow) {
  Graphitti g;
  ASSERT_TRUE(g.IngestDnaSequence("A", "x", "s", "AC").ok());
  // Tables are append-only, so only a fresh catalog (empty built-in
  // tables) leaves the registered object without its row.
  ASSERT_TRUE(g.Mutate([](Graphitti::EngineState& s) {
                 s.catalog = relational::Catalog();
                 s.InstallBuiltins();
                 return util::Status::OK();
               }).ok());
  auto status = g.ValidateIntegrity();
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("dead row"), std::string::npos);
}

TEST(IntegrityTest, DetectsManuallyCorruptedIndex) {
  Graphitti g;
  uint64_t obj = *g.IngestDnaSequence("A", "x", "flu:seg1", std::string(100, 'A'));
  AnnotationBuilder b;
  b.Title("t").MarkInterval("flu:seg1", 10, 20, obj);
  auto id = g.Commit(b);
  ASSERT_TRUE(id.ok());
  // Sabotage: remove the index entry behind the store's back.
  const annotation::ReferentId rid = g.annotations().Get(*id)->referents[0];
  ASSERT_TRUE(g.Mutate([&](Graphitti::EngineState& s) {
                 return s.indexes.RemoveInterval("flu:seg1", spatial::Interval(10, 20), rid);
               }).ok());
  auto status = g.ValidateIntegrity();
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("interval index"), std::string::npos);
}

TEST(IntegrityTest, DetectsForeignAGraphNode) {
  Graphitti g;
  uint64_t obj = *g.IngestDnaSequence("A", "x", "s", "AC");
  (void)obj;
  // A content node that no stored annotation backs.
  ASSERT_TRUE(g.Mutate([](Graphitti::EngineState& s) {
                 s.graph.EnsureNode(agraph::NodeRef::Content(999));
                 return util::Status::OK();
               }).ok());
  auto status = g.ValidateIntegrity();
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.message().find("no stored annotation"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace graphitti
