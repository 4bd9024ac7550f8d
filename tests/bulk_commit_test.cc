// ISSUE-5 bulk-commit pipeline tests: CommitBatch must be observably
// identical to a loop of Commit (ids, spatial query answers, keyword
// search, a-graph shape, integrity), all-or-nothing on a bad builder, and
// a single commit must leave no trace when a later mark fails validation.
// Window answers are also checked against a brute-force scan of the
// corpus marks. Also the corpus-scale persistence round trip: bulk-reloaded
// trees must answer window/next/nearest queries identically to the
// one-commit-at-a-time originals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/graphitti.h"
#include "util/random.h"

namespace graphitti {
namespace {

namespace fs = std::filesystem;

using annotation::AnnotationBuilder;
using annotation::AnnotationId;
using core::Graphitti;
using spatial::Interval;
using spatial::IntervalEntry;
using spatial::Rect;
using spatial::RTreeEntry;
using util::Rng;

constexpr int kNumSegments = 6;
constexpr int kNumChromosomes = 3;

// Runs a store-level call (forced annotation ids have no engine API)
// through Graphitti::Mutate and hands back its result. The scratch is
// published even when the store rejects the call, so the live version
// shows what the store itself left behind after a rejection.
template <typename Fn>
auto OnStore(Graphitti& g, Fn fn) {
  using R = decltype(fn(std::declval<annotation::AnnotationStore&>()));
  std::optional<R> out;
  util::Status st = g.Mutate([&](Graphitti::EngineState& s) {
    out.emplace(fn(*s.store));
    return util::Status::OK();
  });
  return out.has_value() ? *std::move(out) : R(st);
}

std::unique_ptr<Graphitti> FreshEngine() {
  auto g = std::make_unique<Graphitti>();
  EXPECT_TRUE(g->RegisterCoordinateSystem("atlas", 2).ok());
  EXPECT_TRUE(g->RegisterDerivedCoordinateSystem("stack50um", "atlas", {2.0, 2.0, 1.0},
                                                 {10.0, 20.0, 0.0})
                  .ok());
  return g;
}

// Randomized mixed-shape corpus: intervals over several 1D domains, regions
// through both the canonical and a derived coordinate system, repeated marks
// (shared referents), user tags, ontology refs, and a skewed vocabulary.
std::vector<AnnotationBuilder> MakeCorpus(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<AnnotationBuilder> builders;
  builders.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AnnotationBuilder b;
    std::string body = "alpha";
    if (i % 4 == 0) body += " beta";
    if (i % 16 == 0) body += " gamma observed near the mark";
    body += " w" + std::to_string(rng.Next64() % (n / 4 + 1));
    b.Title("bulk" + std::to_string(i)).Creator("tester").Body(body);
    // A quarter of annotations re-mark a small pool of intervals, so the
    // batch exercises shared referents (refcount > 1) within one batch.
    int64_t lo = (i % 4 == 0) ? static_cast<int64_t>(100 * (rng.Next64() % 8))
                              : static_cast<int64_t>(rng.Next64() % 100000);
    b.MarkInterval("flu:seg" + std::to_string(i % kNumSegments), lo, lo + 50);
    if (i % 3 == 0) {
      int64_t lo2 = static_cast<int64_t>(rng.Next64() % 50000);
      b.MarkInterval("mouse:chr" + std::to_string(i % kNumChromosomes), lo2, lo2 + 30);
    }
    if (i % 5 == 0) {
      double x = static_cast<double>(rng.Next64() % 2048);
      double y = static_cast<double>(rng.Next64() % 2048);
      b.MarkRegion(i % 2 ? "stack50um" : "atlas", Rect::Make2D(x, y, x + 8, y + 8));
    }
    if (i % 7 == 0) b.UserTag("grade", i % 2 ? "high" : "low");
    if (i % 11 == 0) b.OntologyReference("go", "GO:000" + std::to_string(i % 5));
    builders.push_back(std::move(b));
  }
  return builders;
}

std::vector<uint64_t> IntervalIds(const std::vector<IntervalEntry>& entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const IntervalEntry& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<uint64_t> RegionIds(const std::vector<RTreeEntry>& entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const RTreeEntry& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The labels of the referents behind index hits, sorted. The corpus marks
// integer coordinates, which every label prints exactly, so equal label
// lists mean equal substructures.
std::vector<std::string> HitLabels(const Graphitti& g, const std::vector<uint64_t>& ids) {
  std::vector<std::string> labels;
  labels.reserve(ids.size());
  for (uint64_t id : ids) {
    const annotation::Referent* ref = g.annotations().GetReferent(id);
    labels.push_back(ref == nullptr ? "missing referent " + std::to_string(id)
                                    : ref->substructure.ToString());
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

// Brute-force answer to a window: the distinct marks in `corpus` for which
// `hit` holds, scanned without any index, as sorted labels.
std::vector<std::string> ScanMarks(
    const std::vector<AnnotationBuilder>& corpus,
    const std::function<bool(const substructure::Substructure&)>& hit) {
  std::vector<std::string> labels;
  for (const AnnotationBuilder& b : corpus) {
    for (const auto& [sub, object_id] : b.marks()) {
      (void)object_id;
      if (hit(sub)) labels.push_back(sub.ToString());
    }
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

// Brute-force interval window: marks in `domain` overlapping `w`.
std::vector<std::string> ScanIntervals(const std::vector<AnnotationBuilder>& corpus,
                                       const std::string& domain, const Interval& w) {
  return ScanMarks(corpus, [&](const substructure::Substructure& sub) {
    return sub.type() == substructure::SubType::kInterval && sub.domain() == domain &&
           sub.interval().Overlaps(w);
  });
}

// Brute-force region window in `system` coordinates: region marks, from
// any system, whose canonical rect overlaps the canonicalized window.
std::vector<std::string> ScanRegions(const Graphitti& g,
                                     const std::vector<AnnotationBuilder>& corpus,
                                     const std::string& system, const Rect& w) {
  const spatial::CoordinateSystemRegistry& systems = g.indexes().coordinate_systems();
  auto window = systems.ToCanonical(system, w);
  EXPECT_TRUE(window.ok());
  if (!window.ok()) return {};
  return ScanMarks(corpus, [&](const substructure::Substructure& sub) {
    if (sub.type() != substructure::SubType::kRegion) return false;
    auto canonical = systems.ToCanonical(sub.domain(), sub.rect());
    return canonical.ok() && canonical->first == window->first &&
           canonical->second.Overlaps(window->second);
  });
}

// Asserts that `a` and `b` answer the same spatial window/next/nearest and
// keyword probes identically, and that every window's hits are exactly the
// corpus marks a brute-force scan finds. Tree *shapes* may differ
// (incremental vs bulk-packed), so id sets — not traversal order — are
// compared where order is shape-dependent.
void ExpectSameAnswers(const Graphitti& a, const Graphitti& b,
                       const std::vector<AnnotationBuilder>& corpus) {
  EXPECT_EQ(a.Stats().ToString(), b.Stats().ToString());
  // Both engines' hits agree on ids, and the substructures behind them
  // match the scan.
  auto expect_window = [&](const std::vector<uint64_t>& ids_a,
                           const std::vector<uint64_t>& ids_b,
                           const std::vector<std::string>& scanned, const std::string& what) {
    EXPECT_EQ(ids_a, ids_b) << what;
    EXPECT_EQ(HitLabels(a, ids_a), scanned) << what;
    EXPECT_EQ(HitLabels(b, ids_b), scanned) << what;
  };
  Rng rng(77);
  for (int s = 0; s < kNumSegments; ++s) {
    std::string domain = "flu:seg" + std::to_string(s);
    for (int probe = 0; probe < 8; ++probe) {
      int64_t lo = static_cast<int64_t>(rng.Next64() % 100000);
      Interval w{lo, lo + 500};
      expect_window(IntervalIds(a.indexes().QueryIntervals(domain, w)),
                    IntervalIds(b.indexes().QueryIntervals(domain, w)),
                    ScanIntervals(corpus, domain, w),
                    domain + " window [" + std::to_string(w.lo) + "," + std::to_string(w.hi) +
                        "]");
      auto na = a.indexes().NextInterval(domain, lo);
      auto nb = b.indexes().NextInterval(domain, lo);
      ASSERT_EQ(na.has_value(), nb.has_value()) << domain << " next@" << lo;
      if (na) {
        EXPECT_EQ(na->interval, nb->interval);
        EXPECT_EQ(na->id, nb->id);
      }
    }
  }
  for (int c = 0; c < kNumChromosomes; ++c) {
    std::string domain = "mouse:chr" + std::to_string(c);
    Interval w{0, 50000};
    expect_window(IntervalIds(a.indexes().QueryIntervals(domain, w)),
                  IntervalIds(b.indexes().QueryIntervals(domain, w)),
                  ScanIntervals(corpus, domain, w), domain);
  }
  for (int probe = 0; probe < 8; ++probe) {
    double x = static_cast<double>(rng.Next64() % 2048);
    double y = static_cast<double>(rng.Next64() % 2048);
    Rect w = Rect::Make2D(x, y, x + 300, y + 300);
    // Derived-system windows canonicalize before the tree walk; both
    // engines and the scan must agree through that transform too.
    for (const char* system : {"atlas", "stack50um"}) {
      auto ra = a.indexes().QueryRegions(system, w);
      auto rb = b.indexes().QueryRegions(system, w);
      ASSERT_TRUE(ra.ok() && rb.ok());
      expect_window(RegionIds(*ra), RegionIds(*rb), ScanRegions(a, corpus, system, w),
                    std::string(system) + " window " + w.ToString());
    }
    const spatial::RTree* ta = a.indexes().GetRTree("atlas");
    const spatial::RTree* tb = b.indexes().GetRTree("atlas");
    ASSERT_EQ(ta != nullptr, tb != nullptr);
    if (ta != nullptr) {
      EXPECT_EQ(RegionIds(ta->Nearest(Rect::Point2D(x, y), 5)),
                RegionIds(tb->Nearest(Rect::Point2D(x, y), 5)));
    }
  }
  for (const char* word : {"alpha", "beta", "gamma", "w0", "w3", "grade", "nosuchword"}) {
    EXPECT_EQ(a.annotations().SearchKeyword(word), b.annotations().SearchKeyword(word))
        << "keyword " << word;
  }
  EXPECT_EQ(a.annotations().SearchPhrase("observed near the mark"),
            b.annotations().SearchPhrase("observed near the mark"));
}

TEST(CommitBatch, MatchesLoopOfCommitOnRandomizedBuilders) {
  const std::vector<AnnotationBuilder> corpus = MakeCorpus(29, 400);

  auto loop = FreshEngine();
  std::vector<AnnotationId> loop_ids;
  for (const AnnotationBuilder& b : corpus) {
    auto id = loop->Commit(b);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    loop_ids.push_back(*id);
  }

  auto batched = FreshEngine();
  auto batch_ids = batched->CommitBatch(corpus);
  ASSERT_TRUE(batch_ids.ok()) << batch_ids.status().ToString();

  EXPECT_EQ(loop_ids, *batch_ids);
  // The a-graph dump is insertion-ordered, so batched == per-commit must
  // hold line-for-line, not just as a set.
  EXPECT_EQ(loop->ExportAGraph(), batched->ExportAGraph());
  ExpectSameAnswers(*loop, *batched, corpus);
  EXPECT_TRUE(loop->ValidateIntegrity().ok());
  EXPECT_TRUE(batched->ValidateIntegrity().ok());
}

TEST(CommitBatch, SecondBatchMergeRebuildsNonEmptyTrees) {
  // First batch packs fresh trees; the second must merge-rebuild (drain +
  // bulk build) and still agree with one flat loop of Commit.
  const std::vector<AnnotationBuilder> first = MakeCorpus(5, 150);
  const std::vector<AnnotationBuilder> second = MakeCorpus(13, 150);

  auto loop = FreshEngine();
  for (const AnnotationBuilder& b : first) ASSERT_TRUE(loop->Commit(b).ok());
  for (const AnnotationBuilder& b : second) ASSERT_TRUE(loop->Commit(b).ok());

  auto batched = FreshEngine();
  ASSERT_TRUE(batched->CommitBatch(first).ok());
  ASSERT_TRUE(batched->CommitBatch(second).ok());

  EXPECT_EQ(loop->ExportAGraph(), batched->ExportAGraph());
  std::vector<AnnotationBuilder> both = first;
  both.insert(both.end(), second.begin(), second.end());
  ExpectSameAnswers(*loop, *batched, both);
  EXPECT_TRUE(batched->ValidateIntegrity().ok());
}

TEST(CommitBatch, AllOrNothingOnBadBuilder) {
  auto g = FreshEngine();
  const std::string before = g->Stats().ToString();
  const std::string graph_before = g->ExportAGraph();

  std::vector<AnnotationBuilder> batch = MakeCorpus(3, 20);
  AnnotationBuilder bad;
  bad.Title("bad").Body("zeta");
  bad.MarkInterval("flu:seg0", 1, 10);
  bad.MarkRegion("nosuchsystem", Rect::Make2D(0, 0, 5, 5));
  batch.push_back(std::move(bad));

  auto ids = g->CommitBatch(batch);
  EXPECT_FALSE(ids.ok());
  // Validation rejected the whole batch before any state change.
  EXPECT_EQ(g->Stats().ToString(), before);
  EXPECT_EQ(g->ExportAGraph(), graph_before);
  EXPECT_TRUE(g->annotations().SearchKeyword("alpha").empty());
  EXPECT_TRUE(g->ValidateIntegrity().ok());

  // The id counter was not consumed: the next commit starts at 1.
  batch.pop_back();
  auto ok_ids = g->CommitBatch(batch);
  ASSERT_TRUE(ok_ids.ok());
  EXPECT_EQ(ok_ids->front(), 1u);
}

TEST(CommitBatch, RejectsDimsMismatchUpFront) {
  // Passes the registered-system check but fails canonicalization (3D rect
  // in a 2D system) — must be caught in validation, not at flush.
  auto g = FreshEngine();
  std::vector<AnnotationBuilder> batch;
  AnnotationBuilder ok;
  ok.Title("fine").Body("body").MarkInterval("flu:seg0", 1, 10);
  batch.push_back(std::move(ok));
  AnnotationBuilder bad;
  bad.Title("bad").Body("body").MarkRegion("atlas", Rect::Make3D(0, 0, 0, 1, 1, 1));
  batch.push_back(std::move(bad));

  EXPECT_FALSE(g->CommitBatch(batch).ok());
  EXPECT_EQ(g->Stats().num_annotations, 0u);
  EXPECT_TRUE(g->indexes().QueryIntervals("flu:seg0", {0, 100}).empty());
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(CommitBatch, ForcedIdCollisionsRejected) {
  auto g = FreshEngine();
  AnnotationBuilder a;
  a.Title("a").Body("one").MarkInterval("flu:seg0", 1, 10);
  ASSERT_TRUE(g->Commit(a).ok());  // takes id 1

  std::vector<AnnotationBuilder> batch;
  AnnotationBuilder b;
  b.Title("b").Body("two").MarkInterval("flu:seg0", 2, 11);
  batch.push_back(b);
  batch.push_back(b);

  // Collision with an existing annotation.
  EXPECT_FALSE(
      OnStore(*g, [&](auto& store) { return store.CommitBatch(batch.data(), 2, {1, 0}); })
          .ok());
  // Collision within the batch itself.
  EXPECT_FALSE(
      OnStore(*g, [&](auto& store) { return store.CommitBatch(batch.data(), 2, {7, 7}); })
          .ok());
  // Size mismatch.
  EXPECT_FALSE(
      OnStore(*g, [&](auto& store) { return store.CommitBatch(batch.data(), 2, {7}); }).ok());
  EXPECT_EQ(g->Stats().num_annotations, 1u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());

  // Valid forced ids interleave with fresh assignment: forced 7 jumps the
  // counter, the fresh one continues past it.
  auto ids = OnStore(*g, [&](auto& store) { return store.CommitBatch(batch.data(), 2, {7, 0}); });
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<AnnotationId>{7, 8}));
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// Forced ids that descend within the batch and fall below (and between)
// ids already in shared posting lists: every such list is appended out of
// order and must be repaired at flush. The result must equal a loop of
// store-level Commit with the same forced ids, list for list.
TEST(CommitBatch, OutOfOrderForcedIdsKeepPostingsSorted) {
  const std::vector<AnnotationBuilder> corpus = MakeCorpus(17, 120);
  constexpr size_t kPre = 40;
  // Pre-batch annotations take even ids 500..890. Batch ids are odd and
  // descend from 1001 to 53, so they start above every listed id, then
  // interleave with them, then fall below them all; every ninth is 0
  // (fresh), which a loop of Commit assigns above everything seen so far.
  std::vector<AnnotationId> forced;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (i < kPre) {
      forced.push_back(500 + 10 * i);
    } else {
      forced.push_back((i - kPre) % 9 == 8 ? 0 : 1001 - 12 * (i - kPre));
    }
  }

  auto loop = FreshEngine();
  std::vector<AnnotationId> loop_ids;
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto id = OnStore(*loop, [&](auto& store) { return store.Commit(corpus[i], forced[i]); });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    loop_ids.push_back(*id);
  }

  auto batched = FreshEngine();
  for (size_t i = 0; i < kPre; ++i) {
    ASSERT_TRUE(
        OnStore(*batched, [&](auto& store) { return store.Commit(corpus[i], forced[i]); })
            .ok());
  }
  const std::vector<AnnotationBuilder> rest(corpus.begin() + kPre, corpus.end());
  const std::vector<AnnotationId> rest_forced(forced.begin() + kPre, forced.end());
  auto batch_ids =
      OnStore(*batched, [&](auto& store) {
        return store.CommitBatch(rest.data(), rest.size(), rest_forced);
      });
  ASSERT_TRUE(batch_ids.ok()) << batch_ids.status().ToString();
  EXPECT_EQ(std::vector<AnnotationId>(loop_ids.begin() + kPre, loop_ids.end()), *batch_ids);

  const annotation::AnnotationStore& store = batched->annotations();
  ASSERT_EQ(store.NumTokens(), loop->annotations().NumTokens());
  // Lists where a batch id landed below a pre-batch id: the repair ran.
  size_t repaired = 0;
  for (uint32_t tid = 0; tid < store.NumTokens(); ++tid) {
    const std::string token(store.TokenString(tid));
    const std::vector<AnnotationId>& posting = store.PostingsOf(tid);
    EXPECT_TRUE(std::adjacent_find(posting.begin(), posting.end(),
                                   std::greater_equal<AnnotationId>()) == posting.end())
        << "posting of '" << token << "' not strictly ascending";
    EXPECT_EQ(posting, loop->annotations().SearchKeyword(token)) << "token " << token;
    const bool has_pre = std::any_of(posting.begin(), posting.end(), [](AnnotationId id) {
      return id >= 500 && id < 900 && id % 2 == 0;
    });
    if (has_pre && posting.front() < 500) ++repaired;
  }
  EXPECT_GT(repaired, 0u) << "no list had batch ids land below its pre-batch ids";
  EXPECT_EQ(loop->ExportAGraph(), batched->ExportAGraph());
  ExpectSameAnswers(*loop, *batched, corpus);
  EXPECT_TRUE(loop->ValidateIntegrity().ok());
  EXPECT_TRUE(batched->ValidateIntegrity().ok());
}

// A commit whose last mark is bad (valid substructure, registered system,
// but the rect dims mismatch its coordinate system) after marks that
// share, adopt and create referents: the failure is caught up front, in
// the pipeline's validation before any state changes, so no referent,
// index entry, a-graph node, adoption or id is left behind.
TEST(CommitRollback, MidLoopMarkFailureLeavesStoreUntouched) {
  auto g = FreshEngine();

  // A pre-existing annotation whose referent the failing commit re-marks:
  // the shared referent must survive with its refcount unchanged.
  AnnotationBuilder existing;
  existing.Title("existing").Body("keeper").MarkInterval("flu:seg1", 10, 50);
  ASSERT_TRUE(g->Commit(existing).ok());

  const std::string stats_before = g->Stats().ToString();
  const std::string graph_before = g->ExportAGraph();

  for (const Rect& bad_rect : {Rect::Make3D(0, 0, 0, 1, 1, 1)}) {
    AnnotationBuilder failing;
    failing.Title("failing").Body("doomed words");
    // Shared with `existing`, and adopting an object id the shared
    // referent did not have — it must stay unowned.
    failing.MarkInterval("flu:seg1", 10, 50, /*object_id=*/7);
    // Fresh referent, fresh domain, and an object id with no pre-existing
    // a-graph node: no object node may be left behind (the ExportAGraph
    // comparison below catches a leak).
    failing.MarkInterval("flu:seg2", 5, 9, /*object_id=*/99);
    failing.MarkRegion("atlas", bad_rect);  // dims mismatch: refused up front
    auto id = g->Commit(failing);
    ASSERT_FALSE(id.ok());
  }
  {
    auto shared = g->annotations().FindReferent(
        substructure::Substructure::MakeInterval("flu:seg1", {10, 50}));
    ASSERT_TRUE(shared.ok());
    ASSERT_NE(g->annotations().GetReferent(*shared), nullptr);
    EXPECT_EQ(g->annotations().GetReferent(*shared)->object_id, 0u)
        << "failed commit must not adopt an object id on shared referents";
  }
  // Unknown coordinate system fails the same way (third mark, after two
  // valid ones).
  {
    AnnotationBuilder failing;
    failing.Title("failing2").Body("doomed words");
    failing.MarkInterval("flu:seg1", 10, 50);
    failing.MarkInterval("flu:seg2", 5, 9);
    failing.MarkRegion("nosuchsystem", Rect::Make2D(0, 0, 1, 1));
    ASSERT_FALSE(g->Commit(failing).ok());
  }

  // Exactly the pre-failure state: no leaked referents, index entries,
  // a-graph nodes, or postings.
  EXPECT_EQ(g->Stats().ToString(), stats_before);
  EXPECT_EQ(g->ExportAGraph(), graph_before);
  EXPECT_TRUE(g->indexes().QueryIntervals("flu:seg2", {0, 100}).empty());
  ASSERT_EQ(g->indexes().QueryIntervals("flu:seg1", {0, 100}).size(), 1u);
  EXPECT_TRUE(g->annotations().SearchKeyword("doomed").empty());
  EXPECT_EQ(g->annotations().SearchKeyword("keeper").size(), 1u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());

  // The failed commits consumed no ids, and the shared referent still
  // resolves for new commits.
  AnnotationBuilder next;
  next.Title("next").Body("fresh").MarkInterval("flu:seg1", 10, 50);
  auto id = g->Commit(next);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);
  EXPECT_EQ(g->Stats().num_referents, 1u);  // still the one shared referent
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// Four unequal substructures in two pairs that print alike (a node set
// differing only past its 8th element; regions differing below the 6th
// decimal): the referent dedup must keep all four apart.
std::vector<AnnotationBuilder> LookalikeBuilders() {
  std::vector<AnnotationBuilder> out(4);
  out[0].Title("set9").Body("lookalike").MarkNodeSet("ppi", {1, 2, 3, 4, 5, 6, 7, 8, 9});
  out[1].Title("set10").Body("lookalike").MarkNodeSet("ppi", {1, 2, 3, 4, 5, 6, 7, 8, 10});
  out[2].Title("x1").Body("lookalike").MarkRegion("atlas", Rect::Make2D(1e-7, 0, 1, 1));
  out[3].Title("x2").Body("lookalike").MarkRegion("atlas", Rect::Make2D(2e-7, 0, 1, 1));
  return out;
}

// Each of the four lookalike annotations marks its own referent, holding
// exactly the substructure it named.
void ExpectFourDistinctReferents(const Graphitti& g, const std::vector<AnnotationId>& ids) {
  const std::vector<AnnotationBuilder> builders = LookalikeBuilders();
  const annotation::AnnotationStore& store = g.annotations();
  EXPECT_EQ(store.num_referents(), 4u);
  ASSERT_EQ(ids.size(), builders.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const annotation::Annotation* ann = store.Get(ids[i]);
    ASSERT_NE(ann, nullptr) << i;
    ASSERT_EQ(ann->referents.size(), 1u) << i;
    const substructure::Substructure& marked = builders[i].marks()[0].first;
    EXPECT_EQ(store.GetReferent(ann->referents[0])->substructure, marked) << i;
    auto found = store.FindReferent(marked);
    ASSERT_TRUE(found.ok()) << i;
    EXPECT_EQ(*found, ann->referents[0]) << i;
  }
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

TEST(CommitBatch, DedupComparesSubstructuresExactly) {
  auto loop = FreshEngine();
  std::vector<AnnotationId> loop_ids;
  for (const AnnotationBuilder& b : LookalikeBuilders()) {
    auto id = loop->Commit(b);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    loop_ids.push_back(*id);
  }
  ExpectFourDistinctReferents(*loop, loop_ids);

  auto batched = FreshEngine();
  auto batch_ids = batched->CommitBatch(LookalikeBuilders());
  ASSERT_TRUE(batch_ids.ok()) << batch_ids.status().ToString();
  ExpectFourDistinctReferents(*batched, *batch_ids);
  EXPECT_EQ(loop->ExportAGraph(), batched->ExportAGraph());

  // Re-marking all four in one batch shares the existing referents.
  ASSERT_TRUE(batched->CommitBatch(LookalikeBuilders()).ok());
  EXPECT_EQ(batched->annotations().num_referents(), 4u);
  EXPECT_TRUE(batched->ValidateIntegrity().ok());
}

TEST(CommitBatch, RejectsNaNRegion) {
  // A NaN region bound used to commit and then match every window.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto g = FreshEngine();
  AnnotationBuilder bad;
  bad.Title("nan").Body("body").MarkRegion("atlas", Rect::Make2D(nan, 0, 10, 10));
  EXPECT_TRUE(g->Commit(bad).status().IsInvalidArgument());
  EXPECT_TRUE(g->CommitBatch({bad}).status().IsInvalidArgument());
  EXPECT_EQ(g->Stats().num_annotations, 0u);
  auto r = g->Query("FIND REFERENTS WHERE { ?s TYPE region ; ?s DOMAIN \"atlas\" ; "
                    "?s OVERLAPS RECT [0,0, 10,10] }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->items.empty());
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(BulkReload, LookalikeReferentsRoundTrip) {
  auto original = FreshEngine();
  auto ids = original->CommitBatch(LookalikeBuilders());
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();

  fs::path dir = fs::temp_directory_path() / "graphitti_bulk_commit_test_lookalike";
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(original->SaveTo(dir.string()).ok());
  auto reloaded = Graphitti::LoadFrom(dir.string());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectFourDistinctReferents(**reloaded, *ids);
  EXPECT_EQ(original->ExportAGraph(), (*reloaded)->ExportAGraph());

  // The restored dedup map still finds each one: re-marking shares it.
  for (const AnnotationBuilder& b : LookalikeBuilders()) {
    ASSERT_TRUE((*reloaded)->Commit(b).ok());
  }
  EXPECT_EQ((*reloaded)->annotations().num_referents(), 4u);
  EXPECT_TRUE((*reloaded)->ValidateIntegrity().ok());
  fs::remove_all(dir, ec);
}

TEST(BulkReload, TenThousandAnnotationRoundTrip) {
  // Incrementally built original vs its reloaded copy: LoadFrom is a
  // snapshot restore, which packs each domain's tree in one bulk build, and
  // must answer window/next/nearest probes identically to the
  // insert-at-a-time originals.
  constexpr size_t kN = 10000;
  const std::vector<AnnotationBuilder> corpus = MakeCorpus(41, kN);
  auto original = FreshEngine();
  for (const AnnotationBuilder& b : corpus) {
    ASSERT_TRUE(original->Commit(b).ok());
  }

  fs::path dir = fs::temp_directory_path() / "graphitti_bulk_commit_test_10k";
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(original->SaveTo(dir.string()).ok());

  auto reloaded = Graphitti::LoadFrom(dir.string());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  EXPECT_EQ((*reloaded)->Stats().num_annotations, kN);
  ExpectSameAnswers(*original, **reloaded, corpus);
  EXPECT_TRUE((*reloaded)->ValidateIntegrity().ok());

  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace graphitti
