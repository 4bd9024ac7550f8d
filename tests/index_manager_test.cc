#include <gtest/gtest.h>

#include "spatial/index_manager.h"

namespace graphitti {
namespace spatial {
namespace {

TEST(IndexManagerTest, OneIntervalTreePerDomain) {
  IndexManager mgr;
  // Many sequences share the same chromosome domain -> one tree.
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(mgr.AddInterval("chr1", Interval(static_cast<int64_t>(i) * 10,
                                                 static_cast<int64_t>(i) * 10 + 5),
                                i)
                    .ok());
  }
  for (uint64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(mgr.AddInterval("chr2", Interval(static_cast<int64_t>(i), static_cast<int64_t>(i) + 2),
                                100 + i)
                    .ok());
  }
  EXPECT_EQ(mgr.num_interval_trees(), 2u);  // not 80
  EXPECT_EQ(mgr.total_interval_entries(), 80u);
  EXPECT_EQ(mgr.IntervalDomains(), (std::vector<std::string>{"chr1", "chr2"}));
}

TEST(IndexManagerTest, IntervalQueriesRouteToDomain) {
  IndexManager mgr;
  ASSERT_TRUE(mgr.AddInterval("chr1", Interval(0, 10), 1).ok());
  ASSERT_TRUE(mgr.AddInterval("chr2", Interval(0, 10), 2).ok());
  auto hits = mgr.QueryIntervals("chr1", Interval(5, 6));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_TRUE(mgr.QueryIntervals("chr9", Interval(0, 100)).empty());
}

TEST(IndexManagerTest, NextIntervalPerDomain) {
  IndexManager mgr;
  ASSERT_TRUE(mgr.AddInterval("chr1", Interval(10, 20), 1).ok());
  ASSERT_TRUE(mgr.AddInterval("chr1", Interval(40, 50), 2).ok());
  auto next = mgr.NextInterval("chr1", 10);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->id, 2u);
  EXPECT_FALSE(mgr.NextInterval("chr1", 40).has_value());
  EXPECT_FALSE(mgr.NextInterval("nope", 0).has_value());
}

TEST(IndexManagerTest, RemoveIntervalDropsEmptyTree) {
  IndexManager mgr;
  ASSERT_TRUE(mgr.AddInterval("chr1", Interval(0, 5), 1).ok());
  EXPECT_EQ(mgr.num_interval_trees(), 1u);
  ASSERT_TRUE(mgr.RemoveInterval("chr1", Interval(0, 5), 1).ok());
  EXPECT_EQ(mgr.num_interval_trees(), 0u);
  EXPECT_TRUE(mgr.RemoveInterval("chr1", Interval(0, 5), 1).IsNotFound());
}

TEST(IndexManagerTest, EmptyDomainRejected) {
  IndexManager mgr;
  EXPECT_TRUE(mgr.AddInterval("", Interval(0, 1), 1).IsInvalidArgument());
}

TEST(IndexManagerTest, RegionsShareCanonicalRTree) {
  IndexManager mgr;
  ASSERT_TRUE(mgr.coordinate_systems().RegisterCanonical("atlas_25um", 2).ok());
  ASSERT_TRUE(mgr.coordinate_systems()
                  .RegisterDerived("atlas_50um", "atlas_25um", {2, 2, 1}, {0, 0, 0})
                  .ok());

  // Regions from images at both resolutions.
  ASSERT_TRUE(mgr.AddRegion("atlas_25um", Rect::Make2D(0, 0, 10, 10), 1).ok());
  ASSERT_TRUE(mgr.AddRegion("atlas_50um", Rect::Make2D(0, 0, 5, 5), 2).ok());

  EXPECT_EQ(mgr.num_rtrees(), 1u);  // one shared R-tree, not two
  EXPECT_EQ(mgr.total_region_entries(), 2u);
  EXPECT_EQ(mgr.RegionSystems(), (std::vector<std::string>{"atlas_25um"}));

  // The 50um region [0,5]^2 maps to canonical [0,10]^2, overlapping region 1.
  auto hits = mgr.QueryRegions("atlas_25um", Rect::Make2D(8, 8, 9, 9));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);

  // Query expressed in 50um space finds the same entries.
  auto hits50 = mgr.QueryRegions("atlas_50um", Rect::Make2D(4, 4, 4.5, 4.5));
  ASSERT_TRUE(hits50.ok());
  EXPECT_EQ(hits50->size(), 2u);
}

TEST(IndexManagerTest, RegionRequiresRegisteredSystem) {
  IndexManager mgr;
  EXPECT_TRUE(mgr.AddRegion("nope", Rect::Make2D(0, 0, 1, 1), 1).IsNotFound());
  EXPECT_TRUE(mgr.QueryRegions("nope", Rect::Make2D(0, 0, 1, 1)).status().IsNotFound());
}

TEST(IndexManagerTest, RemoveRegionDropsEmptyTree) {
  IndexManager mgr;
  ASSERT_TRUE(mgr.coordinate_systems().RegisterCanonical("cs", 2).ok());
  ASSERT_TRUE(mgr.AddRegion("cs", Rect::Make2D(0, 0, 1, 1), 1).ok());
  EXPECT_EQ(mgr.num_rtrees(), 1u);
  ASSERT_TRUE(mgr.RemoveRegion("cs", Rect::Make2D(0, 0, 1, 1), 1).ok());
  EXPECT_EQ(mgr.num_rtrees(), 0u);
  EXPECT_TRUE(mgr.RemoveRegion("cs", Rect::Make2D(0, 0, 1, 1), 1).IsNotFound());
}

TEST(IndexManagerTest, SmallBatchBulkLoadMatchesRebuildPath) {
  IndexManager mgr;
  std::vector<IntervalEntry> base;
  for (uint64_t i = 0; i < 200; ++i) {
    int64_t lo = static_cast<int64_t>(i) * 10;
    base.push_back({Interval(lo, lo + 5), i});
  }
  ASSERT_TRUE(mgr.BulkLoadIntervals("chr1", base).ok());

  // 3 * factor(16) = 48 <= 200: routes to per-entry inserts instead of a
  // drain-and-rebuild of all 203 entries.
  std::vector<IntervalEntry> small = {{Interval(3, 4), 1000},
                                      {Interval(503, 504), 1001},
                                      {Interval(1903, 1904), 1002}};
  ASSERT_TRUE(mgr.BulkLoadIntervals("chr1", small).ok());
  EXPECT_EQ(mgr.total_interval_entries(), 203u);
  auto hits = mgr.QueryIntervals("chr1", Interval(503, 504));
  ASSERT_EQ(hits.size(), 2u);  // base entry 50 and new entry 1001

  // 13 * 16 = 208 > 203: a batch above 1/16 of the tree takes the
  // drain-and-rebuild path and must be query-equivalent.
  std::vector<IntervalEntry> more = {{Interval(7, 8), 2000}};
  for (uint64_t i = 1; i < 13; ++i) {
    int64_t lo = 5000 + static_cast<int64_t>(i) * 10;
    more.push_back({Interval(lo, lo + 5), 2000 + i});
  }
  ASSERT_TRUE(mgr.BulkLoadIntervals("chr1", more).ok());
  EXPECT_EQ(mgr.total_interval_entries(), 216u);
  EXPECT_EQ(mgr.QueryIntervals("chr1", Interval(0, 9)).size(), 3u);
  EXPECT_EQ(mgr.QueryIntervals("chr1", Interval(5000, 6000)).size(), 12u);
}

TEST(IndexManagerTest, SmallBatchBulkLoadRollsBackOnFailure) {
  IndexManager mgr;
  std::vector<IntervalEntry> base;
  for (uint64_t i = 0; i < 100; ++i) {
    int64_t lo = static_cast<int64_t>(i) * 10;
    base.push_back({Interval(lo, lo + 5), i});
  }
  ASSERT_TRUE(mgr.BulkLoadIntervals("chr1", base).ok());

  // Second entry collides with existing entry 7: the whole batch must roll
  // back (all-or-nothing, matching the rebuild path's contract).
  std::vector<IntervalEntry> bad = {{Interval(1, 2), 500}, {Interval(70, 75), 7}};
  EXPECT_TRUE(mgr.BulkLoadIntervals("chr1", bad).IsAlreadyExists());
  EXPECT_EQ(mgr.total_interval_entries(), 100u);
  for (const IntervalEntry& e : mgr.QueryIntervals("chr1", Interval(1, 2))) {
    EXPECT_NE(e.id, 500u);  // the rolled-back first entry must be gone
  }
}

TEST(IndexManagerTest, SmallBatchRegionBulkLoadCanonicalizes) {
  IndexManager mgr;
  ASSERT_TRUE(mgr.coordinate_systems().RegisterCanonical("atlas_25um", 2).ok());
  ASSERT_TRUE(mgr.coordinate_systems()
                  .RegisterDerived("atlas_50um", "atlas_25um", {2, 2, 1}, {0, 0, 0})
                  .ok());
  std::vector<RTreeEntry> base;
  for (uint64_t i = 0; i < 100; ++i) {
    double x = static_cast<double>(i) * 20.0;
    base.push_back({Rect::Make2D(x, 0, x + 10, 10), i});
  }
  ASSERT_TRUE(mgr.BulkLoadRegions("atlas_25um", base).ok());

  // A small batch in the derived system still lands canonicalized in the
  // shared tree.
  std::vector<RTreeEntry> small = {{Rect::Make2D(0, 0, 5, 5), 900}};
  ASSERT_TRUE(mgr.BulkLoadRegions("atlas_50um", small).ok());
  EXPECT_EQ(mgr.num_rtrees(), 1u);
  EXPECT_EQ(mgr.total_region_entries(), 101u);
  auto hits = mgr.QueryRegions("atlas_25um", Rect::Make2D(9, 9, 9.5, 9.5));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);  // base entry 0 and the scaled 50um region
}

TEST(IndexManagerTest, GetTreeAccessors) {
  IndexManager mgr;
  EXPECT_EQ(mgr.GetIntervalTree("chr1"), nullptr);
  ASSERT_TRUE(mgr.AddInterval("chr1", Interval(0, 5), 1).ok());
  ASSERT_NE(mgr.GetIntervalTree("chr1"), nullptr);
  EXPECT_EQ(mgr.GetIntervalTree("chr1")->size(), 1u);

  EXPECT_EQ(mgr.GetRTree("cs"), nullptr);
  ASSERT_TRUE(mgr.coordinate_systems().RegisterCanonical("cs", 3).ok());
  ASSERT_TRUE(mgr.AddRegion("cs", Rect::Make3D(0, 0, 0, 1, 1, 1), 2).ok());
  ASSERT_NE(mgr.GetRTree("cs"), nullptr);
  EXPECT_EQ(mgr.GetRTree("cs")->dims(), 3);
}

}  // namespace
}  // namespace spatial
}  // namespace graphitti
