// Focused unit tests for util/epoch.h (EpochManager), complementing the
// multi-threaded coverage in concurrency_stress_test.cc:
//   - pin/retire ordering: a pin taken before a publish keeps reading the
//     version it pinned, epochs are monotonic, copies re-pin.
//   - op-replay vs full-clone equivalence: driving the writer protocol
//     (TakeRecyclable + replay of the one op the last publish applied)
//     produces states identical to cloning the current version every
//     commit — first on a tiny instrumented state type, then end-to-end
//     through the engine.
//   - reclamation on last-pin-drop: a drained superseded version is
//     destroyed exactly when its last pin drops (or on the next publish
//     if it was parked as the recycle candidate), never earlier.
//   - a refused commit, remove, registration or ingest leaves the parked
//     standby alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/graphitti.h"
#include "util/epoch.h"

namespace graphitti {
namespace util {
namespace {

// Instrumented snapshot state: a value payload plus a destruction counter
// so tests can pin down *when* the manager reclaims a version.
struct CountedState : Versioned {
  CountedState(std::vector<int> v, int* counter)
      : values(std::move(v)), destroyed(counter) {}
  ~CountedState() override { ++*destroyed; }
  std::vector<int> values;
  int* destroyed;
};

std::unique_ptr<CountedState> MakeState(std::vector<int> v, int* counter) {
  return std::make_unique<CountedState>(std::move(v), counter);
}

const CountedState* StateOf(const EpochPin& pin) {
  return static_cast<const CountedState*>(pin.get());
}

TEST(EpochTest, PinHoldsItsVersionAcrossPublishes) {
  auto mgr = std::make_shared<EpochManager>();
  int destroyed = 0;

  mgr->Publish(MakeState({1}, &destroyed));
  EpochPin pin = mgr->PinCurrent();
  const uint64_t pinned_epoch = pin.epoch();
  ASSERT_NE(StateOf(pin), nullptr);
  EXPECT_EQ(StateOf(pin)->values, std::vector<int>({1}));

  mgr->Publish(MakeState({1, 2}, &destroyed));
  mgr->Publish(MakeState({1, 2, 3}, &destroyed));

  // The pin still answers from the version it entered on; the manager has
  // moved on (epochs are strictly monotonic).
  EXPECT_EQ(StateOf(pin)->values, std::vector<int>({1}));
  EXPECT_EQ(pin.epoch(), pinned_epoch);
  EXPECT_GT(mgr->current_epoch(), pinned_epoch);

  // A fresh pin sees the newest version; a copied pin re-pins the old one.
  EpochPin fresh = mgr->PinCurrent();
  EXPECT_EQ(StateOf(fresh)->values, std::vector<int>({1, 2, 3}));
  EpochPin copy = pin;
  EXPECT_EQ(copy.epoch(), pinned_epoch);
  EXPECT_EQ(StateOf(copy)->values, std::vector<int>({1}));
}

TEST(EpochTest, ReclamationWaitsForLastPinDrop) {
  auto mgr = std::make_shared<EpochManager>();
  int destroyed = 0;

  mgr->Publish(MakeState({1}, &destroyed));
  EpochPin pin = mgr->PinCurrent();
  EpochPin copy = pin;

  // Two publishes: v1 (pinned twice) is first parked as the recycle
  // candidate, then evicted from candidacy by v2's retirement — but it
  // must survive as long as any pin holds it.
  mgr->Publish(MakeState({2}, &destroyed));
  mgr->Publish(MakeState({3}, &destroyed));
  EXPECT_EQ(destroyed, 0);
  EXPECT_EQ(mgr->live_versions(), 3u);  // v1 (pinned) + v2 (parked) + v3

  pin.reset();
  EXPECT_EQ(destroyed, 0) << "reclaimed while a copy still pinned it";
  copy.reset();
  EXPECT_EQ(destroyed, 1) << "last pin dropped; v1 must be reclaimed";
  EXPECT_EQ(mgr->live_versions(), 2u);  // v2 (parked standby) + v3

  // The parked standby is still adoptable by the writer.
  std::unique_ptr<Versioned> standby = mgr->TakeRecyclable();
  ASSERT_NE(standby, nullptr);
  EXPECT_EQ(static_cast<CountedState*>(standby.get())->values,
            std::vector<int>({2}));
  EXPECT_EQ(mgr->live_versions(), 1u);
}

TEST(EpochTest, DroppedCandidateReclaimsOnDrain) {
  auto mgr = std::make_shared<EpochManager>();
  int destroyed = 0;

  mgr->Publish(MakeState({1}, &destroyed));
  EpochPin pin = mgr->PinCurrent();
  mgr->Publish(MakeState({2}, &destroyed));

  // The writer declares the candidate unusable (the last publish recorded
  // no op). Still pinned, so it lives; the drop only removes candidacy.
  mgr->DropRecyclable();
  EXPECT_EQ(destroyed, 0);
  pin.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(mgr->live_versions(), 1u);

  EXPECT_EQ(mgr->TakeRecyclable(), nullptr);
}

// Writer protocol simulation, mirroring Graphitti::AcquireScratch and
// PublishOp: one run recycles the standby and catches it up by replaying
// the single op its last publish applied (cloning when there is no op or
// the standby is pinned); the reference run clones the current state
// every commit. Both must publish identical payloads at every step.
TEST(EpochTest, OpReplayMatchesFullClone) {
  auto recycled = std::make_shared<EpochManager>();
  auto cloned = std::make_shared<EpochManager>();
  int destroyed = 0;

  recycled->Publish(MakeState({}, &destroyed));
  cloned->Publish(MakeState({}, &destroyed));

  // The recycling writer's op: the value its last publish appended, or
  // nullopt when that publish recorded none.
  std::optional<int> last_op;
  EpochPin reader;
  size_t standby_adoptions = 0;
  size_t clones = 0;

  for (int step = 1; step <= 32; ++step) {
    // --- recycling writer ---
    std::unique_ptr<Versioned> standby =
        last_op.has_value() ? recycled->TakeRecyclable() : nullptr;
    std::unique_ptr<CountedState> scratch;
    if (standby != nullptr) {
      ++standby_adoptions;
      scratch.reset(static_cast<CountedState*>(standby.release()));
      scratch->values.push_back(*last_op);
    } else {
      ++clones;
      recycled->DropRecyclable();
      auto* current = static_cast<CountedState*>(recycled->Current());
      scratch = MakeState(current->values, &destroyed);
    }
    scratch->values.push_back(step);
    recycled->Publish(std::move(scratch));
    if (step % 7 == 0) {
      // Unreplayable publish (like an oversized batch): no op, no standby.
      last_op.reset();
      recycled->DropRecyclable();
    } else {
      last_op = step;
    }
    // A reader pins every fifth version across the next two publishes, so
    // the writer meets a standby that has not drained.
    if (step % 5 == 0) reader = recycled->PinCurrent();
    if (step % 5 == 2) reader.reset();

    // --- reference writer: always full clone ---
    auto* ref = static_cast<CountedState*>(cloned->Current());
    auto ref_next = MakeState(ref->values, &destroyed);
    ref_next->values.push_back(step);
    cloned->Publish(std::move(ref_next));

    EXPECT_EQ(static_cast<CountedState*>(recycled->Current())->values,
              static_cast<CountedState*>(cloned->Current())->values)
        << "divergence at step " << step;
  }

  // Both paths must actually be exercised; with the reader gone, only the
  // current version and the parked standby are left.
  EXPECT_GT(standby_adoptions, 0u) << "recycle path never taken";
  EXPECT_GT(clones, 0u) << "clone path never taken";
  EXPECT_LE(recycled->live_versions(), 2u);
}

// End-to-end equivalence through the engine: one engine commits with a
// long-lived query result pinning an old version the whole time (the
// recycle candidate never drains, so every commit falls back to a full
// clone); the other commits with no pins held (op-replay standby
// recycling, as VersionsReclaim* in concurrency_stress_test.cc verifies).
// Both must answer queries identically afterwards.
TEST(EpochTest, EngineReplayAndClonePathsConverge) {
  core::Graphitti pinned_engine;
  core::Graphitti recycled_engine;

  auto ingest = [](core::Graphitti* g, int i) {
    const std::string acc = "EQ" + std::to_string(i);
    auto obj = g->IngestDnaSequence(acc, "H5N1", "flu:seg" + std::to_string(i % 4),
                                    "ACGTACGTAC");
    ASSERT_TRUE(obj.ok());
    annotation::AnnotationBuilder b;
    b.Title("equivalence " + std::to_string(i))
        .Creator("tester")
        .Body("equivalence probe " + std::to_string(i))
        .MarkInterval("chrE", static_cast<int64_t>(i) * 10,
                      static_cast<int64_t>(i) * 10 + 5, *obj);
    ASSERT_TRUE(g->Commit(b).ok());
  };

  ASSERT_NO_FATAL_FAILURE(ingest(&pinned_engine, 0));
  ASSERT_NO_FATAL_FAILURE(ingest(&recycled_engine, 0));

  // Hold a result (and with it an epoch pin) across all further commits.
  auto held = pinned_engine.Query(
      "FIND CONTENTS WHERE { ?a CONTAINS \"probe\" }");
  ASSERT_TRUE(held.ok());
  ASSERT_EQ(held->items.size(), 1u);

  for (int i = 1; i <= 12; ++i) {
    ASSERT_NO_FATAL_FAILURE(ingest(&pinned_engine, i));
    ASSERT_NO_FATAL_FAILURE(ingest(&recycled_engine, i));
  }

  // The held snapshot is frozen at one annotation; both engines' fresh
  // views agree with each other despite taking different scratch paths.
  EXPECT_EQ(held->items.size(), 1u);
  for (const char* q :
       {"FIND CONTENTS WHERE { ?a CONTAINS \"probe\" }",
        "FIND REFERENTS ?s WHERE { ?a CONTAINS \"probe\" ; ?s IS REFERENT ; "
        "?a ANNOTATES ?s }"}) {
    auto a = pinned_engine.Query(q);
    auto b = recycled_engine.Query(q);
    ASSERT_TRUE(a.ok()) << q;
    ASSERT_TRUE(b.ok()) << q;
    EXPECT_EQ(a->items.size(), b->items.size()) << q;
  }
  auto count_a = pinned_engine.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"probe\" }");
  auto count_b = recycled_engine.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"probe\" }");
  ASSERT_TRUE(count_a.ok());
  ASSERT_TRUE(count_b.ok());
  EXPECT_EQ(count_a->items[0].count, 13u);
  EXPECT_EQ(count_b->items[0].count, 13u);
  EXPECT_TRUE(pinned_engine.ValidateIntegrity().ok());
  EXPECT_TRUE(recycled_engine.ValidateIntegrity().ok());
}

// A commit, remove, registration or ingest that the published version
// refuses is refused before the writer takes a scratch version, so the
// parked standby survives it (two live versions: current + standby) and
// the refusal keeps its status code. A refused ingest draws no object id.
TEST(EpochTest, RefusedMutationsKeepTheStandby) {
  core::Graphitti g;
  ASSERT_TRUE(g.RegisterCoordinateSystem("atlas", 2).ok());
  ASSERT_TRUE(g.CreateTable("notes", relational::SchemaBuilder().Str("text", false).Build())
                  .ok());
  auto first_object = g.IngestRecord("notes", {relational::Value::Str("first")});
  ASSERT_TRUE(first_object.ok()) << first_object.status().ToString();
  for (int i = 0; i < 3; ++i) {
    annotation::AnnotationBuilder b;
    b.Title("kept " + std::to_string(i)).MarkInterval("chrK", i * 10, i * 10 + 5);
    ASSERT_TRUE(g.Commit(b).ok());
  }
  ASSERT_EQ(g.live_engine_versions(), 2u);

  annotation::AnnotationBuilder unknown_system;
  unknown_system.Title("refused").MarkRegion("nope", spatial::Rect::Make2D(0, 0, 1, 1));
  EXPECT_TRUE(g.Commit(unknown_system).status().IsNotFound());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  annotation::AnnotationBuilder no_marks;
  no_marks.Title("refused");
  EXPECT_TRUE(g.Commit(no_marks).status().IsInvalidArgument());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  annotation::AnnotationBuilder empty_tag;
  empty_tag.Title("refused").UserTag("", "v").MarkInterval("chrK", 0, 1);
  EXPECT_TRUE(g.Commit(empty_tag).status().IsInvalidArgument());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  annotation::AnnotationBuilder unregistered_object;
  unregistered_object.Title("refused").MarkInterval("chrK", 0, 1, *first_object + 100);
  EXPECT_TRUE(g.Commit(unregistered_object).status().IsNotFound());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  EXPECT_TRUE(g.RemoveAnnotation(999).IsNotFound());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  EXPECT_TRUE(g.RegisterCoordinateSystem("atlas", 2).IsAlreadyExists());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  EXPECT_TRUE(
      g.RegisterDerivedCoordinateSystem("atlas50", "nope", {2, 2, 2}, {0, 0, 0}).IsNotFound());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  EXPECT_TRUE(g.CreateTable("notes", relational::SchemaBuilder().Int("n").Build())
                  .IsAlreadyExists());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  EXPECT_TRUE(g.IngestRecord("missing", {relational::Value::Str("x")}).status().IsNotFound());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  EXPECT_TRUE(g.IngestRecord("notes", {relational::Value::Str("x"), relational::Value::Int(1)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  EXPECT_TRUE(g.IngestImage("slice", "nope", "MRI", 4, 4, 1).status().IsNotFound());
  EXPECT_EQ(g.live_engine_versions(), 2u);

  auto next_object = g.IngestRecord("notes", {relational::Value::Str("next")});
  ASSERT_TRUE(next_object.ok()) << next_object.status().ToString();
  EXPECT_EQ(*next_object, *first_object + 1);
  EXPECT_EQ(g.live_engine_versions(), 2u);

  annotation::AnnotationBuilder after;
  after.Title("after").MarkInterval("chrK", 100, 105);
  ASSERT_TRUE(g.Commit(after).ok());
  EXPECT_EQ(g.live_engine_versions(), 2u);
  EXPECT_EQ(g.Stats().num_annotations, 4u);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

}  // namespace
}  // namespace util
}  // namespace graphitti
