#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <limits>

#include "spatial/index_manager.h"
#include "substructure/operators.h"
#include "substructure/substructure.h"
#include "util/random.h"

namespace graphitti {
namespace substructure {
namespace {

using spatial::Interval;
using spatial::Rect;

TEST(SubstructureTest, FactoriesAndAccessors) {
  Substructure iv = Substructure::MakeInterval("chr1", Interval(5, 10));
  EXPECT_EQ(iv.type(), SubType::kInterval);
  EXPECT_EQ(iv.domain(), "chr1");
  EXPECT_EQ(iv.interval(), Interval(5, 10));
  EXPECT_TRUE(iv.valid());

  Substructure rg = Substructure::MakeRegion("atlas", Rect::Make2D(0, 0, 1, 1));
  EXPECT_EQ(rg.type(), SubType::kRegion);
  EXPECT_TRUE(rg.valid());

  Substructure ns = Substructure::MakeNodeSet("graph1", {3, 1, 2, 1});
  EXPECT_EQ(ns.elements(), (std::vector<uint64_t>{1, 2, 3}));  // sorted, deduped

  Substructure bs = Substructure::MakeBlockSet("table", {7, 7});
  EXPECT_EQ(bs.elements(), (std::vector<uint64_t>{7}));

  Substructure tc = Substructure::MakeTreeClade("tree", {9, 8});
  EXPECT_EQ(tc.type(), SubType::kTreeClade);
}

TEST(SubstructureTest, Validity) {
  EXPECT_FALSE(Substructure::MakeInterval("", Interval(0, 1)).valid());
  EXPECT_FALSE(Substructure::MakeInterval("d", Interval(5, 1)).valid());
  EXPECT_FALSE(Substructure::MakeNodeSet("d", {}).valid());
  EXPECT_FALSE(Substructure::MakeRegion("d", Rect::Make2D(5, 0, 0, 5)).valid());
}

TEST(SubstructureTest, TraitsMatchPaperSemantics) {
  // next: "applicable on data types for which there is a strict ordering".
  EXPECT_TRUE(TraitsOf(SubType::kInterval).ordered);
  EXPECT_FALSE(TraitsOf(SubType::kRegion).ordered);
  EXPECT_FALSE(TraitsOf(SubType::kNodeSet).ordered);
  EXPECT_FALSE(TraitsOf(SubType::kTreeClade).ordered);
  // intersect: "valid for convex data types such as sequences and rectangles".
  EXPECT_TRUE(TraitsOf(SubType::kInterval).convex);
  EXPECT_TRUE(TraitsOf(SubType::kRegion).convex);
  EXPECT_FALSE(TraitsOf(SubType::kNodeSet).convex);
  EXPECT_FALSE(TraitsOf(SubType::kBlockSet).convex);
  EXPECT_FALSE(TraitsOf(SubType::kTreeClade).convex);
}

TEST(SubstructureTest, EqualityAndToString) {
  Substructure a = Substructure::MakeInterval("chr1", Interval(5, 10));
  Substructure b = Substructure::MakeInterval("chr1", Interval(5, 10));
  Substructure c = Substructure::MakeInterval("chr2", Interval(5, 10));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "interval@chr1[5,10]");
  EXPECT_EQ(Substructure::MakeNodeSet("g", {1, 2}).ToString(), "node-set@g{1,2}");
}

// --- ifOverlap ---

// Labels reach a-graph exports and REFERENTS/GRAPH answers, and are
// embedded in stored content XML, so their text is pinned: region bounds
// in printf's "%f" format (six decimals, no exponent), interval bounds in
// full decimal.
TEST(SubstructureTest, LabelTextIsPrintfFormat) {
  EXPECT_EQ(Substructure::MakeRegion("atlas", Rect::Make2D(0.5, -2.25, 1e20, 3)).ToString(),
            "region@atlas[(0.500000,100000000000000000000.000000) x (-2.250000,3.000000)]");
  EXPECT_EQ(Substructure::MakeRegion("atlas", Rect::Make2D(-0.0, 1.0 / 3, 0.0, 2.0 / 3))
                .ToString(),
            "region@atlas[(-0.000000,0.000000) x (0.333333,0.666667)]");
  EXPECT_EQ(Substructure::MakeRegion("atlas3", Rect::Make3D(-7.125, 1e-7, -1, 2.5, 6e-7, 0))
                .ToString(),
            "region@atlas3[(-7.125000,2.500000) x (0.000000,0.000001) x (-1.000000,0.000000)]");
  EXPECT_EQ(Substructure::MakeInterval("chr1", Interval(INT64_MIN, INT64_MAX)).ToString(),
            "interval@chr1[-9223372036854775808,9223372036854775807]");
  EXPECT_EQ(Substructure::MakeInterval("chr1", Interval(-5, 0)).ToString(),
            "interval@chr1[-5,0]");
  EXPECT_EQ(Substructure::MakeNodeSet("g", {1, 2, 3, 4, 5, 6, 7, 8, UINT64_MAX}).ToString(),
            "node-set@g{1,2,3,4,5,6,7,8,...}");
  EXPECT_EQ(Substructure::MakeTreeClade("t", {UINT64_MAX}).ToString(),
            "tree-clade@t{18446744073709551615}");
  // Extremes of the double range, one bound per dimension.
  Rect wide;
  wide.dims = 2;
  wide.lo = {-DBL_MAX, 5e-324, 0};
  wide.hi = {DBL_MAX, std::numeric_limits<double>::infinity(), 0};
  const std::string max_digits =
      "179769313486231570814527423731704356798070567525844996598917476803157260780028538760"
      "589558632766878171540458953514382464234321326889464182768467546703537516986049910576"
      "551282076245490090389328944075868508455133942304583236903222948165808559332123348274"
      "797826204144723168738177180919299881250404026184124858368.000000";
  EXPECT_EQ(wide.ToString(), "[(-" + max_digits + "," + max_digits + ") x (0.000000,inf)]");
}

TEST(IfOverlapTest, Intervals) {
  Substructure a = Substructure::MakeInterval("chr1", Interval(0, 10));
  Substructure b = Substructure::MakeInterval("chr1", Interval(5, 15));
  Substructure c = Substructure::MakeInterval("chr1", Interval(11, 20));
  EXPECT_TRUE(*IfOverlap(a, b));
  EXPECT_FALSE(*IfOverlap(a, c));
}

TEST(IfOverlapTest, Regions) {
  Substructure a = Substructure::MakeRegion("cs", Rect::Make2D(0, 0, 10, 10));
  Substructure b = Substructure::MakeRegion("cs", Rect::Make2D(5, 5, 15, 15));
  Substructure c = Substructure::MakeRegion("cs", Rect::Make2D(20, 20, 30, 30));
  EXPECT_TRUE(*IfOverlap(a, b));
  EXPECT_FALSE(*IfOverlap(a, c));
}

TEST(IfOverlapTest, SetsOverlapOnSharedElements) {
  Substructure a = Substructure::MakeNodeSet("g", {1, 2, 3});
  Substructure b = Substructure::MakeNodeSet("g", {3, 4});
  Substructure c = Substructure::MakeNodeSet("g", {4, 5});
  EXPECT_TRUE(*IfOverlap(a, b));
  EXPECT_FALSE(*IfOverlap(a, c));
}

TEST(IfOverlapTest, TypeAndDomainMismatchRejected) {
  Substructure iv = Substructure::MakeInterval("chr1", Interval(0, 10));
  Substructure rg = Substructure::MakeRegion("cs", Rect::Make2D(0, 0, 1, 1));
  Substructure other = Substructure::MakeInterval("chr2", Interval(0, 10));
  EXPECT_TRUE(IfOverlap(iv, rg).status().IsTypeError());
  EXPECT_TRUE(IfOverlap(iv, other).status().IsInvalidArgument());
  EXPECT_TRUE(IfOverlap(iv, Substructure::MakeInterval("chr1", Interval(5, 1)))
                  .status()
                  .IsInvalidArgument());
}

TEST(IfOverlapTest, SymmetryProperty) {
  util::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    int64_t a_lo = rng.Uniform(0, 100);
    int64_t b_lo = rng.Uniform(0, 100);
    Substructure a = Substructure::MakeInterval("d", Interval(a_lo, a_lo + rng.Uniform(0, 20)));
    Substructure b = Substructure::MakeInterval("d", Interval(b_lo, b_lo + rng.Uniform(0, 20)));
    EXPECT_EQ(*IfOverlap(a, b), *IfOverlap(b, a));
  }
}

// --- intersect ---

TEST(IntersectTest, ConvexTypes) {
  Substructure a = Substructure::MakeInterval("chr1", Interval(0, 10));
  Substructure b = Substructure::MakeInterval("chr1", Interval(5, 15));
  auto i = Intersect(a, b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->interval(), Interval(5, 10));

  Substructure r1 = Substructure::MakeRegion("cs", Rect::Make2D(0, 0, 10, 10));
  Substructure r2 = Substructure::MakeRegion("cs", Rect::Make2D(5, 5, 20, 20));
  auto ri = Intersect(r1, r2);
  ASSERT_TRUE(ri.ok());
  EXPECT_EQ(ri->rect(), Rect::Make2D(5, 5, 10, 10));
}

TEST(IntersectTest, DisjointIsNotFound) {
  Substructure a = Substructure::MakeInterval("chr1", Interval(0, 10));
  Substructure b = Substructure::MakeInterval("chr1", Interval(20, 30));
  EXPECT_TRUE(Intersect(a, b).status().IsNotFound());
}

TEST(IntersectTest, NonConvexTypesUnsupported) {
  Substructure a = Substructure::MakeNodeSet("g", {1, 2});
  Substructure b = Substructure::MakeNodeSet("g", {2, 3});
  EXPECT_TRUE(Intersect(a, b).status().IsUnsupported());
}

TEST(IntersectTest, ResultContainedInBothOperands) {
  util::Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    int64_t a_lo = rng.Uniform(0, 50);
    int64_t b_lo = rng.Uniform(0, 50);
    Interval ia(a_lo, a_lo + rng.Uniform(5, 30));
    Interval ib(b_lo, b_lo + rng.Uniform(5, 30));
    Substructure a = Substructure::MakeInterval("d", ia);
    Substructure b = Substructure::MakeInterval("d", ib);
    auto r = Intersect(a, b);
    if (ia.Overlaps(ib)) {
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(ia.Contains(r->interval()));
      EXPECT_TRUE(ib.Contains(r->interval()));
    } else {
      EXPECT_TRUE(r.status().IsNotFound());
    }
  }
}

// --- MeetElements ---

TEST(MeetElementsTest, SetIntersection) {
  Substructure a = Substructure::MakeBlockSet("t", {1, 2, 3, 4});
  Substructure b = Substructure::MakeBlockSet("t", {3, 4, 5});
  auto m = MeetElements(a, b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->elements(), (std::vector<uint64_t>{3, 4}));
  EXPECT_EQ(m->type(), SubType::kBlockSet);

  EXPECT_TRUE(MeetElements(a, Substructure::MakeBlockSet("t", {9})).status().IsNotFound());
}

TEST(MeetElementsTest, ConvexTypesRejected) {
  Substructure a = Substructure::MakeInterval("c", Interval(0, 1));
  Substructure b = Substructure::MakeInterval("c", Interval(0, 1));
  EXPECT_TRUE(MeetElements(a, b).status().IsUnsupported());
}

// --- next ---

TEST(NextTest, FollowsIndexedOrdering) {
  spatial::IndexManager mgr;
  ASSERT_TRUE(mgr.AddInterval("chr1", Interval(10, 20), 1).ok());
  ASSERT_TRUE(mgr.AddInterval("chr1", Interval(30, 40), 2).ok());
  ASSERT_TRUE(mgr.AddInterval("chr1", Interval(50, 60), 3).ok());

  Substructure cur = Substructure::MakeInterval("chr1", Interval(10, 20));
  auto next = Next(cur, mgr);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->interval(), Interval(30, 40));

  auto next2 = Next(*next, mgr);
  ASSERT_TRUE(next2.ok());
  EXPECT_EQ(next2->interval(), Interval(50, 60));

  EXPECT_TRUE(Next(*next2, mgr).status().IsNotFound());
}

TEST(NextTest, UnorderedTypesUnsupported) {
  spatial::IndexManager mgr;
  Substructure region = Substructure::MakeRegion("cs", Rect::Make2D(0, 0, 1, 1));
  EXPECT_TRUE(Next(region, mgr).status().IsUnsupported());
  Substructure clade = Substructure::MakeTreeClade("t", {1});
  EXPECT_TRUE(Next(clade, mgr).status().IsUnsupported());
}

TEST(NextTest, BlockSetSuccessor) {
  spatial::IndexManager mgr;
  Substructure block = Substructure::MakeBlockSet("t", {3, 7});
  auto next = Next(block, mgr);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->elements(), (std::vector<uint64_t>{8}));
}

TEST(NextTest, InvalidOperandRejected) {
  spatial::IndexManager mgr;
  EXPECT_TRUE(Next(Substructure::MakeInterval("d", Interval(5, 1)), mgr)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace substructure
}  // namespace graphitti
