#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "relational/table.h"
#include "util/random.h"

namespace graphitti {
namespace relational {
namespace {

Schema SeqSchema() {
  return SchemaBuilder().Str("accession", false).Str("organism").Int("length").Build();
}

Row SeqRow(const std::string& acc, const std::string& org, int64_t len) {
  return {Value::Str(acc), Value::Str(org), Value::Int(len)};
}

TEST(TableTest, InsertAndGet) {
  Table t("seq", SeqSchema());
  auto id = t.Insert(SeqRow("A1", "H5N1", 100));
  ASSERT_TRUE(id.ok());
  const Row* row = t.Get(*id);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[0].as_string(), "A1");
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, InsertValidatesSchema) {
  Table t("seq", SeqSchema());
  EXPECT_TRUE(t.Insert({Value::Str("A")}).status().IsInvalidArgument());
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Str("x"), Value::Int(1)})
                  .status()
                  .IsTypeError());
  EXPECT_TRUE(t.Insert({Value::Null(), Value::Str("x"), Value::Int(1)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, GetCellByName) {
  Table t("seq", SeqSchema());
  RowId id = *t.Insert(SeqRow("A1", "H5N1", 100));
  EXPECT_EQ(t.GetCell(id, "organism").as_string(), "H5N1");
  EXPECT_TRUE(t.GetCell(id, "missing").is_null());
  EXPECT_TRUE(t.GetCell(999, "organism").is_null());
}

TEST(TableTest, SelectWithoutIndex) {
  Table t("seq", SeqSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert(SeqRow("A" + std::to_string(i), i % 2 ? "H5N1" : "H3N2", i)).ok());
  }
  auto rows = t.Select(Predicate::Eq("organism", Value::Str("H5N1")));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST(TableTest, SelectRejectsUnknownColumn) {
  Table t("seq", SeqSchema());
  EXPECT_TRUE(t.Select(Predicate::Eq("nope", Value::Int(1))).status().IsNotFound());
}

TEST(TableTest, HashIndexAccelersEquality) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.CreateIndex("accession", IndexKind::kHash).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Insert(SeqRow("A" + std::to_string(i), "org", i)).ok());
  }
  auto rows = t.Select(Predicate::Eq("accession", Value::Str("A42")));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*t.Get((*rows)[0]))[2].as_int(), 42);
}

TEST(TableTest, CreateIndexBackfillsExistingRows) {
  Table t("seq", SeqSchema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.Insert(SeqRow("A" + std::to_string(i % 5), "org", i)).ok());
  }
  ASSERT_TRUE(t.CreateIndex("accession", IndexKind::kHash).ok());
  auto rows = t.Select(Predicate::Eq("accession", Value::Str("A3")));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
}

TEST(TableTest, DuplicateIndexRejected) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.CreateIndex("accession", IndexKind::kHash).ok());
  EXPECT_TRUE(t.CreateIndex("accession", IndexKind::kOrdered).IsAlreadyExists());
  EXPECT_TRUE(t.CreateIndex("missing", IndexKind::kHash).IsNotFound());
  EXPECT_TRUE(t.HasIndex("accession"));
  EXPECT_FALSE(t.HasIndex("organism"));
}

TEST(TableTest, OrderedIndexRangeQueries) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.CreateIndex("length", IndexKind::kOrdered).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.Insert(SeqRow("A" + std::to_string(i), "org", i)).ok());
  }
  auto lt = t.Select(Predicate::Compare("length", CompareOp::kLt, Value::Int(10)));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->size(), 10u);
  auto ge = t.Select(Predicate::Compare("length", CompareOp::kGe, Value::Int(45)));
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->size(), 5u);
  auto between = t.Select(
      Predicate::And(Predicate::Compare("length", CompareOp::kGe, Value::Int(10)),
                     Predicate::Compare("length", CompareOp::kLe, Value::Int(19))));
  ASSERT_TRUE(between.ok());
  EXPECT_EQ(between->size(), 10u);
}

TEST(TableTest, SelectivityEstimates) {
  Table t("seq", SeqSchema());
  ASSERT_TRUE(t.CreateIndex("organism", IndexKind::kHash).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Insert(SeqRow("A" + std::to_string(i), i < 10 ? "rare" : "common", i)).ok());
  }
  double rare = t.EstimateSelectivity(Predicate::Eq("organism", Value::Str("rare")));
  double common = t.EstimateSelectivity(Predicate::Eq("organism", Value::Str("common")));
  EXPECT_DOUBLE_EQ(rare, 0.1);
  EXPECT_DOUBLE_EQ(common, 0.9);
  EXPECT_DOUBLE_EQ(t.EstimateSelectivity(Predicate::True()), 1.0);
  double conj = t.EstimateSelectivity(
      Predicate::And(Predicate::Eq("organism", Value::Str("rare")),
                     Predicate::Eq("organism", Value::Str("common"))));
  EXPECT_NEAR(conj, 0.09, 1e-9);
}

// Property test: Select (index-accelerated) == SelectScan (oracle) over
// random data and random predicates.
class TableSelectPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableSelectPropertyTest, IndexedSelectMatchesScan) {
  util::Rng rng(GetParam());
  Table t("rand", SchemaBuilder().Str("s").Int("i").Real("r").Build());
  ASSERT_TRUE(t.CreateIndex("s", IndexKind::kHash).ok());
  ASSERT_TRUE(t.CreateIndex("i", IndexKind::kOrdered).ok());

  for (int n = 0; n < 300; ++n) {
    ASSERT_TRUE(t.Insert({Value::Str(std::string(1, static_cast<char>('a' + rng.Uniform(0, 5)))),
                          Value::Int(rng.Uniform(0, 50)), Value::Real(rng.NextDouble())})
                    .ok());
  }
  for (int q = 0; q < 40; ++q) {
    Predicate pred = Predicate::True();
    switch (rng.Uniform(0, 3)) {
      case 0:
        pred = Predicate::Eq("s", Value::Str(std::string(1, static_cast<char>('a' + rng.Uniform(0, 5)))));
        break;
      case 1:
        pred = Predicate::Compare("i", CompareOp::kLe, Value::Int(rng.Uniform(0, 50)));
        break;
      case 2:
        pred = Predicate::And(
            Predicate::Eq("s", Value::Str(std::string(1, static_cast<char>('a' + rng.Uniform(0, 5))))),
            Predicate::Compare("i", CompareOp::kGt, Value::Int(rng.Uniform(0, 50))));
        break;
      case 3:
        pred = Predicate::Or(Predicate::Eq("i", Value::Int(rng.Uniform(0, 50))),
                             Predicate::Compare("i", CompareOp::kGe, Value::Int(45)));
        break;
    }
    auto fast = t.Select(pred);
    auto slow = t.SelectScan(pred);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(*fast, *slow) << pred.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableSelectPropertyTest,
                         ::testing::Values(1, 7, 21, 42, 99, 1234));

// --- Catalog ---

TEST(CatalogTest, CreateAndGet) {
  Catalog c;
  auto t = c.CreateTable("seq", SeqSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(c.GetTable("seq"), *t);
  EXPECT_EQ(c.num_tables(), 1u);
  EXPECT_TRUE(c.CreateTable("seq", SeqSchema()).status().IsAlreadyExists());
  EXPECT_EQ(c.GetTable("other"), nullptr);
}

TEST(CatalogTest, TableNamesSortedAndTotalRows) {
  Catalog c;
  ASSERT_TRUE(c.CreateTable("zeta", SeqSchema()).ok());
  ASSERT_TRUE(c.CreateTable("alpha", SeqSchema()).ok());
  ASSERT_TRUE(c.GetTable("alpha")->Insert(SeqRow("A", "x", 1)).ok());
  ASSERT_TRUE(c.GetTable("zeta")->Insert(SeqRow("B", "y", 2)).ok());
  ASSERT_TRUE(c.GetTable("zeta")->Insert(SeqRow("C", "z", 3)).ok());
  EXPECT_EQ(c.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(c.TotalRows(), 3u);
}

}  // namespace
}  // namespace relational
}  // namespace graphitti
