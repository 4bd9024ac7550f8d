// Resource-governance tests: deadlines, cancellation, and memory budgets
// must stop a query cooperatively (promptly, with the right status code and
// an observable stop reason) without disturbing untouched engine state, and
// the engine-level counters in Graphitti::Health() must record each class
// of stop.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "annotation/annotation_store.h"
#include "core/graphitti.h"
#include "query/executor.h"
#include "util/governance.h"

namespace graphitti {
namespace {

using annotation::AnnotationBuilder;
using core::Graphitti;
using query::ExecutorOptions;
using query::StopReason;
using util::CancellationToken;
using util::Deadline;

// A corpus dense in shared referents, so CONNECTED joins have real work to
// do: every fourth annotation re-marks one of eight hub intervals.
std::vector<AnnotationBuilder> DenseCorpus(size_t n) {
  std::vector<AnnotationBuilder> builders;
  builders.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AnnotationBuilder b;
    b.Title("ann" + std::to_string(i)).Creator("governance");
    b.Body(i % 3 == 0 ? "alpha shared token" : "beta filler body");
    int64_t lo = (i % 4 == 0) ? static_cast<int64_t>(100 * (i % 8))
                              : static_cast<int64_t>(13 * i % 100000);
    b.MarkInterval("flu:seg" + std::to_string(i % 4), lo, lo + 40);
    builders.push_back(std::move(b));
  }
  return builders;
}

// The expensive probe: a CONNECTED self-join over every content node.
constexpr char kWideJoin[] =
    "FIND CONTENTS WHERE { ?a IS CONTENT ; ?b IS CONTENT ; ?a CONNECTED ?b }";

class GovernanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Graphitti();
    auto ids = engine_->CommitBatch(DenseCorpus(kCorpusSize));
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    ASSERT_EQ(ids->size(), kCorpusSize);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static constexpr size_t kCorpusSize = 50000;
  static Graphitti* engine_;
};

Graphitti* GovernanceTest::engine_ = nullptr;

TEST_F(GovernanceTest, UngovernedDefaultsRunToCompletion) {
  ExecutorOptions opts;  // infinite deadline, inert token, no budget
  auto r = engine_->Query("FIND COUNT ?c WHERE { ?c CONTAINS \"alpha\" }", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(r->items[0].count, (kCorpusSize + 2) / 3);
}

TEST_F(GovernanceTest, OneMillisecondDeadlineStopsTheWideJoinPromptly) {
  ExecutorOptions opts;
  opts.deadline = Deadline::After(std::chrono::milliseconds(1));
  const auto start = std::chrono::steady_clock::now();
  auto r = engine_->Query(kWideJoin, opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  // "Promptly": amortized checks detect expiry within a stride, orders of
  // magnitude before the join would finish. The bound is deliberately
  // generous for loaded CI machines.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_GE(engine_->Health().deadline_exceeded, 1u);
}

TEST_F(GovernanceTest, PreCancelledTokenStopsImmediatelyAndResetRetries) {
  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  ExecutorOptions opts;
  opts.cancel = token;
  auto r = engine_->Query("FIND COUNT ?c WHERE { ?c CONTAINS \"alpha\" }", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_GE(engine_->Health().cancelled, 1u);

  // The same token retries cleanly after Reset (the flag is shared, not
  // consumed).
  token.Reset();
  auto retry = engine_->Query("FIND COUNT ?c WHERE { ?c CONTAINS \"alpha\" }", opts);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->stats.stop_reason, StopReason::kCompleted);
}

TEST_F(GovernanceTest, MemoryBudgetStopsTheJoinWithResourceExhausted) {
  ExecutorOptions opts;
  opts.memory_budget_bytes = 64 * 1024;  // far below the join's table size
  auto r = engine_->Query(kWideJoin, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_GE(engine_->Health().resource_exhausted, 1u);
}

TEST_F(GovernanceTest, GraphTargetHonoursCancellation) {
  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  ExecutorOptions opts;
  opts.cancel = token;
  auto r = engine_->Query(
      "FIND GRAPH WHERE { ?a CONTAINS \"alpha\" ; ?b CONTAINS \"beta\" ; "
      "?a CONNECTED ?b }",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
}

TEST_F(GovernanceTest, GovernedStopLeavesEngineServing) {
  // A governance stop is per-query: the engine itself stays healthy and
  // the next ungoverned query completes.
  ExecutorOptions tight;
  tight.deadline = Deadline::After(std::chrono::microseconds(1));
  (void)engine_->Query(kWideJoin, tight);
  EXPECT_EQ(engine_->Health().mode, core::EngineMode::kServing);
  auto r = engine_->Query("FIND COUNT ?c WHERE { ?c CONTAINS \"beta\" }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.stop_reason, StopReason::kCompleted);
}

// --- Flip governance --------------------------------------------------------
// A GRAPH result keeps its connect batch for later page flips. Only the call
// that flips governs the flip: the query's own deadline and token are spent
// once the query returns.

// Four protease annotations on disjoint intervals of one sequence give this
// pair query 10 distinct rows, 5 pages of 2; every row has at least two
// terminals, so each connect checks governance.
constexpr char kPairGraph[] = R"(FIND GRAPH WHERE {
    ?a1 CONTAINS "protease" ; ?a2 CONTAINS "protease" ;
    ?s1 IS REFERENT ; ?s2 IS REFERENT ;
    ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ;
  } LIMIT 2 PAGE 1)";

class FlipGovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string bases;
    for (int i = 0; i < 100; ++i) bases += "ACGT";
    auto obj = engine_.IngestDnaSequence("AF001", "H5N1", "flu:seg4", bases);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    for (int i = 0; i < 4; ++i) {
      AnnotationBuilder b;
      b.Title("ann" + std::to_string(i)).Body("protease motif");
      b.MarkInterval("flu:seg4", 100 * i, 100 * i + 50, *obj);
      ASSERT_TRUE(engine_.Commit(b).ok());
    }
  }

  // Flips `r` through an Executor with `opts`, over the version `r` pinned.
  static util::Status FlipWith(query::QueryResult* r, size_t page,
                               const ExecutorOptions& opts) {
    const auto& state = *static_cast<const Graphitti::EngineState*>(r->snapshot.get());
    query::QueryContext ctx;
    ctx.store = state.store.get();
    ctx.indexes = &state.indexes;
    ctx.graph = &state.graph;
    return query::Executor(ctx, opts).MaterializePage(r, page);
  }

  static size_t BuiltOnPage(const query::QueryResult& r) {
    size_t built = 0;
    for (const query::ResultItem& item : r.Page()) built += item.subgraph_ready ? 1 : 0;
    return built;
  }

  Graphitti engine_;
};

TEST_F(FlipGovernanceTest, FlipIsGovernedByTheFlippingCall) {
  // A token cancelled after its query returned does not stop a later flip.
  CancellationToken token = CancellationToken::Create();
  ExecutorOptions governed;
  governed.cancel = token;
  auto r = engine_.Query(kPairGraph, governed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->total_pages, 5u);
  token.RequestCancel();
  util::Status flip = engine_.MaterializePage(&*r, 2);
  ASSERT_TRUE(flip.ok()) << flip.ToString();
  EXPECT_EQ(r->page, 2u);
  EXPECT_EQ(BuiltOnPage(*r), 2u);

  // The mirror case: a flip whose own token is cancelled stops with
  // kCancelled and leaves the page unbuilt; an ungoverned retry builds it.
  auto u = engine_.Query(kPairGraph);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  ExecutorOptions cancelled;
  cancelled.cancel = token;
  flip = FlipWith(&*u, 2, cancelled);
  EXPECT_TRUE(flip.IsCancelled()) << flip.ToString();
  EXPECT_EQ(u->page, 2u);
  EXPECT_EQ(BuiltOnPage(*u), 0u);
  flip = engine_.MaterializePage(&*u, 2);
  ASSERT_TRUE(flip.ok()) << flip.ToString();
  EXPECT_EQ(BuiltOnPage(*u), 2u);
}

TEST_F(FlipGovernanceTest, ExpiredQueryDeadlineDoesNotStopALaterFlip) {
  const Deadline deadline = Deadline::After(std::chrono::milliseconds(200));
  ExecutorOptions governed;
  governed.deadline = deadline;
  auto r = engine_.Query(kPairGraph, governed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  while (!deadline.expired()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (size_t page = 2; page <= r->total_pages; ++page) {
    util::Status flip = engine_.MaterializePage(&*r, page);
    ASSERT_TRUE(flip.ok()) << "page " << page << ": " << flip.ToString();
    EXPECT_EQ(BuiltOnPage(*r), r->Page().size()) << "page " << page;
  }
}

// --- Stop-reason observability (Explain) -----------------------------------
// Explain must render the partial plan of a governed stop and say why the
// execution stopped, instead of erroring out with the governance status.

class ExplainStopTest : public ::testing::Test {
 protected:
  ExplainStopTest() : store_(&indexes_, &graph_) {}

  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      AnnotationBuilder b;
      b.Title("ann" + std::to_string(i)).Body("alpha body " + std::to_string(i));
      b.MarkInterval("flu:seg4", 100 * i, 100 * i + 50);
      ASSERT_TRUE(store_.Commit(b).ok());
    }
  }

  query::QueryContext Context() {
    query::QueryContext ctx;
    ctx.store = &store_;
    ctx.indexes = &indexes_;
    ctx.graph = &graph_;
    return ctx;
  }

  spatial::IndexManager indexes_;
  agraph::AGraph graph_;
  annotation::AnnotationStore store_;
};

TEST_F(ExplainStopTest, CompletedRunReportsCompleted) {
  auto plan = query::Executor(Context()).ExplainText(
      "FIND CONTENTS WHERE { ?a CONTAINS \"alpha\" }");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("stopped: completed"), std::string::npos) << *plan;
}

TEST_F(ExplainStopTest, RowLimitStopIsNamedInThePlan) {
  ExecutorOptions opts;
  opts.max_intermediate_rows = 2;
  auto plan = query::Executor(Context(), opts)
                  .ExplainText("FIND CONTENTS WHERE { ?a IS CONTENT ; "
                               "?b IS CONTENT ; ?a CONNECTED ?b }");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("stopped: row-limit"), std::string::npos) << *plan;
}

TEST_F(ExplainStopTest, CancelledStopIsNamedInThePlan) {
  CancellationToken token = CancellationToken::Create();
  token.RequestCancel();
  ExecutorOptions opts;
  opts.cancel = token;
  auto plan = query::Executor(Context(), opts)
                  .ExplainText("FIND CONTENTS WHERE { ?a CONTAINS \"alpha\" }");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("stopped: cancelled"), std::string::npos) << *plan;
}

TEST_F(ExplainStopTest, ExecutionStatsRecordRowLimitStop) {
  // The Execute() status preserves the legacy kOutOfRange contract while
  // the stats pinpoint the reason.
  ExecutorOptions opts;
  opts.max_intermediate_rows = 2;
  auto r = query::Executor(Context(), opts)
               .ExecuteText("FIND CONTENTS WHERE { ?a IS CONTENT ; "
                            "?b IS CONTENT ; ?a CONNECTED ?b }");
  EXPECT_TRUE(r.status().IsOutOfRange()) << r.status().ToString();
}

}  // namespace
}  // namespace graphitti
