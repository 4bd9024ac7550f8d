// Crash-safe durability: OpenDurable / Checkpoint / recovery edge cases.
// The fault-schedule torture test lives in recovery_fault_test.cc; this file
// covers the recovery state machine on intact (or hand-damaged) directories.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/graphitti.h"
#include "core/workload.h"
#include "persist/fault_env.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace graphitti {
namespace core {
namespace {

namespace fs = std::filesystem;
using annotation::AnnotationBuilder;
using persist::FaultInjectionEnv;

constexpr char kDir[] = "/db";

std::string WalPath(uint64_t generation) {
  return std::string(kDir) + "/" + persist::WalFileName(generation);
}

std::string SnapshotPath(uint64_t generation) {
  return std::string(kDir) + "/" + persist::SnapshotFileName(generation);
}

std::unique_ptr<Graphitti> MustOpen(FaultInjectionEnv* env) {
  DurabilityOptions opts;
  opts.env = env;
  auto g = Graphitti::OpenDurable(kDir, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(*g);
}

// Commits one interval annotation; returns its id.
annotation::AnnotationId CommitOne(Graphitti* g, const std::string& title,
                                   uint64_t object_id = 0) {
  AnnotationBuilder b;
  b.Title(title).Creator("tester").Body("body of " + title);
  b.MarkInterval("flu:seg4", 10, 20, object_id);
  auto id = g->Commit(b);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.ok() ? *id : 0;
}

TEST(RecoveryTest, FreshOpenCommitsSurviveReopen) {
  FaultInjectionEnv env;
  uint64_t seq = 0;
  annotation::AnnotationId a1 = 0, a2 = 0;
  {
    auto g = MustOpen(&env);
    EXPECT_TRUE(g->IsDurable());
    EXPECT_EQ(g->generation(), 0u);
    seq = *g->IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGTACGT");
    a1 = CommitOne(g.get(), "first", seq);
    a2 = CommitOne(g.get(), "second");
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 2u);
  ASSERT_NE(g->GetObject(seq), nullptr);
  EXPECT_EQ(g->GetObject(seq)->label, "dna_sequences/AF1");
  ASSERT_NE(g->annotations().Get(a1), nullptr);
  EXPECT_EQ(g->annotations().Get(a1)->dc.title, "first");
  ASSERT_NE(g->annotations().Get(a2), nullptr);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  // Replayed commits are fully hot: keyword search and content agree.
  EXPECT_EQ(g->annotations().SearchKeyword("first").size(), 1u);
}

TEST(RecoveryTest, RemovalReplays) {
  FaultInjectionEnv env;
  annotation::AnnotationId a1 = 0, a2 = 0;
  {
    auto g = MustOpen(&env);
    a1 = CommitOne(g.get(), "keep");
    a2 = CommitOne(g.get(), "drop");
    ASSERT_TRUE(g->RemoveAnnotation(a2).ok());
  }
  auto g = MustOpen(&env);
  EXPECT_NE(g->annotations().Get(a1), nullptr);
  EXPECT_EQ(g->annotations().Get(a2), nullptr);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, CheckpointRoundTripsDeepState) {
  FaultInjectionEnv env;
  std::string stats_before, agraph_before;
  std::vector<annotation::AnnotationId> protease_before;
  {
    auto g = MustOpen(&env);
    InfluenzaParams params;
    params.num_annotations = 40;
    ASSERT_TRUE(GenerateInfluenzaStudy(g.get(), params).ok());
    stats_before = g->Stats().ToString();
    agraph_before = g->ExportAGraph();
    protease_before = g->annotations().SearchKeyword("protease");
    ASSERT_TRUE(g->Checkpoint().ok());
    EXPECT_EQ(g->generation(), 1u);
    // Old generation's files are gone, new pair exists.
    EXPECT_TRUE(env.FileExists(SnapshotPath(1)));
    EXPECT_TRUE(env.FileExists(WalPath(1)));
    EXPECT_FALSE(env.FileExists(WalPath(0)));
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->generation(), 1u);
  EXPECT_EQ(g->Stats().ToString(), stats_before);
  // The snapshot restore rebuilds the a-graph in commit order: the dump
  // matches line for line.
  EXPECT_EQ(g->ExportAGraph(), agraph_before);
  EXPECT_EQ(g->annotations().SearchKeyword("protease"), protease_before);
  EXPECT_TRUE(g->ValidateIntegrity().ok());

  // Cold content hydrates on demand: an XPath-filtered query touches it.
  auto q = g->Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->items.size(), protease_before.size());

  // New commits continue after the restored id space.
  annotation::AnnotationId next = CommitOne(g.get(), "post-restore");
  EXPECT_EQ(next, 41u);
}

TEST(RecoveryTest, SnapshotPlusWalTailRecovers) {
  FaultInjectionEnv env;
  annotation::AnnotationId pre = 0, post = 0;
  {
    auto g = MustOpen(&env);
    pre = CommitOne(g.get(), "in snapshot");
    ASSERT_TRUE(g->Checkpoint().ok());
    post = CommitOne(g.get(), "in wal tail");
  }
  auto g = MustOpen(&env);
  EXPECT_NE(g->annotations().Get(pre), nullptr);
  ASSERT_NE(g->annotations().Get(post), nullptr);
  EXPECT_EQ(g->annotations().Get(post)->dc.title, "in wal tail");
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, EmptyWalRecoversEmptyEngine) {
  FaultInjectionEnv env;
  { auto g = MustOpen(&env); }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 0u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  CommitOne(g.get(), "works after empty recovery");
  EXPECT_EQ(g->Stats().num_annotations, 1u);
}

TEST(RecoveryTest, TornFirstRecordRecoversEmpty) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    CommitOne(g.get(), "will be torn");
  }
  std::string data = *env.ReadFileToString(WalPath(0));
  ASSERT_TRUE(env.TruncateFile(WalPath(0), data.size() - 5).ok());
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 0u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  // The reopened WAL extends the clean (empty) prefix.
  CommitOne(g.get(), "after torn recovery");
  auto g2 = MustOpen(&env);
  EXPECT_EQ(g2->Stats().num_annotations, 1u);
}

TEST(RecoveryTest, SnapshotWithMissingWalIsCompleteState) {
  FaultInjectionEnv env;
  annotation::AnnotationId pre = 0;
  {
    auto g = MustOpen(&env);
    pre = CommitOne(g.get(), "snapshotted");
    ASSERT_TRUE(g->Checkpoint().ok());
  }
  // A crash between the snapshot rename and the new WAL's creation leaves
  // exactly this directory shape.
  ASSERT_TRUE(env.RemoveFile(WalPath(1)).ok());
  ASSERT_TRUE(env.SyncDir(kDir).ok());
  auto g = MustOpen(&env);
  EXPECT_NE(g->annotations().Get(pre), nullptr);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
  // The WAL was recreated on attach; new mutations are durable again.
  CommitOne(g.get(), "after recreation");
  auto g2 = MustOpen(&env);
  EXPECT_EQ(g2->Stats().num_annotations, 2u);
}

TEST(RecoveryTest, DuplicateReplayIsIdempotent) {
  FaultInjectionEnv env;
  std::string stats_once;
  {
    auto g = MustOpen(&env);
    uint64_t seq = *g->IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGT");
    CommitOne(g.get(), "one", seq);
    CommitOne(g.get(), "two");
    stats_once = g->Stats().ToString();
  }
  // Double every record: header + records + records. Each record is intact,
  // so replay sees every mutation delivered twice.
  std::string data = *env.ReadFileToString(WalPath(0));
  std::string doubled = data + data.substr(persist::kWalHeaderSize);
  {
    auto f = env.NewWritableFile(WalPath(0), /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(doubled).ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().ToString(), stats_once);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, WalWithoutItsSnapshotRefused) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    CommitOne(g.get(), "x");
    ASSERT_TRUE(g->Checkpoint().ok());
  }
  // wal-1 depends on snapshot-1; deleting the snapshot must refuse recovery
  // (silently replaying wal-1 onto an empty engine would corrupt state).
  ASSERT_TRUE(env.RemoveFile(SnapshotPath(1)).ok());
  ASSERT_TRUE(env.SyncDir(kDir).ok());
  DurabilityOptions opts;
  opts.env = &env;
  auto g = Graphitti::OpenDurable(kDir, opts);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInternal()) << g.status().ToString();
}

TEST(RecoveryTest, GroupCommitIntervalModeLosesOnlyUnsyncedTail) {
  FaultInjectionEnv env;
  DurabilityOptions opts;
  opts.env = &env;
  opts.wal.sync_policy = persist::WalOptions::SyncPolicy::kInterval;
  opts.wal.interval_ms = 60 * 1000;
  {
    auto g = Graphitti::OpenDurable(kDir, opts);
    ASSERT_TRUE(g.ok());
    CommitOne(g->get(), "maybe lost");
    CommitOne(g->get(), "maybe lost too");
    env.Crash();
  }
  // The un-fsynced tail is gone; the synced header makes recovery clean.
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 0u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// --- Deferred hydration (the fast-restart path) ---

TEST(RecoveryTest, DeferredAndEagerRestoreAgree) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    uint64_t seq = *g->IngestDnaSequence("AF9", "H1N1", "flu:seg4", "ACGT");
    CommitOne(g.get(), "pre-checkpoint", seq);
    ASSERT_TRUE(g->Checkpoint().ok());
    CommitOne(g.get(), "wal tail");
  }
  auto lazy = MustOpen(&env);
  DurabilityOptions eager_opts;
  eager_opts.env = &env;
  eager_opts.eager_restore = true;
  auto eager = Graphitti::OpenDurable(kDir, eager_opts);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(lazy->Stats().ToString(), (*eager)->Stats().ToString());
  EXPECT_EQ(lazy->ExportAGraph(), (*eager)->ExportAGraph());
  EXPECT_EQ(lazy->generation(), (*eager)->generation());
}

TEST(RecoveryTest, CommitBeforeAnyReadHydratesFirst) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    CommitOne(g.get(), "already durable");
    ASSERT_TRUE(g->Checkpoint().ok());
  }
  {
    // The very first call on the reopened engine is a mutation: deferred
    // recovery must run before the commit applies and logs, so the new
    // record lands in the WAL after the recovered state — not before it.
    auto g = MustOpen(&env);
    CommitOne(g.get(), "committed pre-hydration-read");
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 2u);
  EXPECT_EQ(g->annotations().SearchKeyword("durable").size(), 1u);
  EXPECT_EQ(g->annotations().SearchKeyword("pre").size(), 1u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

TEST(RecoveryTest, CheckpointRightAfterOpenHydratesFirst) {
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    CommitOne(g.get(), "alpha");
    CommitOne(g.get(), "beta");
  }
  {
    auto g = MustOpen(&env);
    ASSERT_TRUE(g->Checkpoint().ok());
    EXPECT_EQ(g->generation(), 1u);
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->generation(), 1u);
  EXPECT_EQ(g->Stats().num_annotations, 2u);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// Tail builder: three interval domains with repeating offsets (so tail
// annotations share referents with each other and with the snapshot) and
// a small vocabulary (so their postings land in shared lists).
AnnotationBuilder TailBuilder(size_t i) {
  AnnotationBuilder b;
  std::string body = "tail word" + std::to_string(i % 13);
  if (i % 5 == 0) body += " gamma";
  b.Title("t" + std::to_string(i)).Creator("tester").Body(body);
  const int64_t lo = static_cast<int64_t>((i * 37) % 600);
  b.MarkInterval("flu:seg" + std::to_string(i % 3), lo, lo + 25);
  return b;
}

// Keyword answers, then interval-window answers, over TailBuilder's
// vocabulary and domains.
std::vector<std::vector<uint64_t>> TailAnswers(const Graphitti& g) {
  std::vector<std::vector<uint64_t>> out;
  for (const char* word : {"tail", "word0", "word7", "gamma", "nosuchword"}) {
    out.push_back(g.annotations().SearchKeyword(word));
  }
  for (int s = 0; s < 3; ++s) {
    for (int64_t lo = 0; lo < 600; lo += 150) {
      std::vector<uint64_t> ids;
      for (const spatial::IntervalEntry& e :
           g.indexes().QueryIntervals("flu:seg" + std::to_string(s), {lo, lo + 100})) {
        ids.push_back(e.id);
      }
      std::sort(ids.begin(), ids.end());
      out.push_back(std::move(ids));
    }
  }
  return out;
}

TEST(RecoveryTest, LongTailOfSmallRecordsReplaysToLiveState) {
  FaultInjectionEnv env;
  std::string stats, agraph;
  std::vector<std::vector<uint64_t>> answers;
  {
    auto g = MustOpen(&env);
    std::vector<AnnotationBuilder> base;
    for (size_t i = 0; i < 200; ++i) base.push_back(TailBuilder(i));
    auto base_ids = g->CommitBatch(base);
    ASSERT_TRUE(base_ids.ok()) << base_ids.status().ToString();
    ASSERT_TRUE(g->Checkpoint().ok());
    // The tail: one record per Commit, a CommitBatch of 8 every 50th step,
    // and a remove every 7th step, alternating between snapshot and tail ids.
    std::vector<annotation::AnnotationId> tail_ids;
    size_t next = 200;
    for (size_t step = 0; step < 400; ++step) {
      if (step % 50 == 49) {
        std::vector<AnnotationBuilder> batch;
        for (int k = 0; k < 8; ++k) batch.push_back(TailBuilder(next++));
        auto ids = g->CommitBatch(batch);
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        tail_ids.insert(tail_ids.end(), ids->begin(), ids->end());
      } else {
        auto id = g->Commit(TailBuilder(next++));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        tail_ids.push_back(*id);
      }
      if (step % 7 == 6) {
        const annotation::AnnotationId victim =
            step % 14 == 6 ? (*base_ids)[step / 7] : tail_ids[step / 14];
        ASSERT_TRUE(g->RemoveAnnotation(victim).ok());
      }
    }
    stats = g->Stats().ToString();
    agraph = g->ExportAGraph();
    answers = TailAnswers(*g);
    ASSERT_TRUE(g->ValidateIntegrity().ok());
  }
  // Deferred hydration (the default) replays the whole tail on first use.
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().ToString(), stats);
  EXPECT_EQ(g->ExportAGraph(), agraph);
  EXPECT_EQ(TailAnswers(*g), answers);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// A hydration cancelled and then retried serves the whole recovered state:
// the discarded half-built version never becomes commit scratch, so no
// commit, and no checkpoint of one, drops the restored annotations.
TEST(RecoveryTest, CancelledHydrationRetryKeepsState) {
  constexpr size_t kRestored = 3000;
  FaultInjectionEnv env;
  {
    auto g = MustOpen(&env);
    std::vector<AnnotationBuilder> base;
    for (size_t i = 0; i < kRestored; ++i) base.push_back(TailBuilder(i));
    ASSERT_TRUE(g->CommitBatch(base).ok());
    ASSERT_TRUE(g->Checkpoint().ok());
  }
  DurabilityOptions opts;
  opts.env = &env;
  opts.hydrate_cancel = util::CancellationToken::Create();
  opts.hydrate_cancel.RequestCancel();
  {
    auto opened = Graphitti::OpenDurable(kDir, opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Graphitti* g = opened->get();
    ASSERT_TRUE(g->ValidateIntegrity().IsCancelled());
    opts.hydrate_cancel.Reset();
    for (size_t n = 1; n <= 3; ++n) {
      CommitOne(g, "after retry " + std::to_string(n));
      EXPECT_EQ(g->Stats().num_annotations, kRestored + n) << "after commit " << n;
      EXPECT_TRUE(g->ValidateIntegrity().ok()) << "after commit " << n;
      if (n == 1) {
        ASSERT_TRUE(g->Checkpoint().ok());
      }
    }
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, kRestored + 3);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// Mutate cannot be logged, so a durable engine refuses it before running
// the function: nothing it accepts is missing from its WAL.
TEST(RecoveryTest, DurableEngineRefusesMutate) {
  FaultInjectionEnv env;
  auto g = MustOpen(&env);
  CommitOne(g.get(), "logged");
  const std::string before = g->Stats().ToString();
  const uint64_t epoch = g->engine_epoch();
  bool ran = false;
  util::Status st = g->Mutate([&](Graphitti::EngineState& s) {
    ran = true;
    s.graph.EnsureNode(agraph::NodeRef::Content(999), "unlogged");
    return util::Status::OK();
  });
  EXPECT_TRUE(st.IsUnsupported()) << st.ToString();
  EXPECT_FALSE(ran);
  EXPECT_EQ(g->Stats().ToString(), before);
  EXPECT_EQ(g->engine_epoch(), epoch);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// --- Real-filesystem cases: SaveTo/LoadFrom share the durable format ---

class RecoveryFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("graphitti_recovery_" + std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(RecoveryFsTest, SavedDirectoryOpensDurablyAtGenerationOne) {
  const fs::path saved = dir_ / "saved";
  std::string stats_saved;
  {
    Graphitti g;
    uint64_t seq = *g.IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGTACGT");
    ASSERT_TRUE(g.SaveTo(saved.string()).ok());
    CommitOne(&g, "saved", seq);
    stats_saved = g.Stats().ToString();
    // The second save replaces the first.
    ASSERT_TRUE(g.SaveTo(saved.string()).ok());
  }
  {
    auto g = Graphitti::OpenDurable(saved.string());
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_EQ((*g)->generation(), 1u);
    EXPECT_EQ((*g)->Stats().ToString(), stats_saved);
    CommitOne(g->get(), "after-open");
  }
  auto g = Graphitti::OpenDurable(saved.string());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ((*g)->Stats().num_annotations, 2u);
  EXPECT_TRUE((*g)->ValidateIntegrity().ok());

  // A durable engine's directory is never a save target: with only wal-0
  // present, recovery would take a new snapshot-1 and sweep wal-0 as stale.
  Graphitti other;
  CommitOne(&other, "other");
  const fs::path durable = dir_ / "durable";
  {
    auto d = Graphitti::OpenDurable(durable.string());
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    CommitOne(d->get(), "logged");
  }
  EXPECT_TRUE(other.SaveTo(durable.string()).IsAlreadyExists());
  EXPECT_FALSE(fs::exists(durable / persist::SnapshotFileName(1)));
  {
    auto d = Graphitti::OpenDurable(durable.string());
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_TRUE((*d)->Checkpoint().ok());
  }
  EXPECT_TRUE(other.SaveTo(durable.string()).IsAlreadyExists());
  auto d = Graphitti::LoadFrom(durable.string());
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_EQ((*d)->Stats().num_annotations, 1u);
  EXPECT_EQ((*d)->annotations().Get(1)->dc.title, "logged");
}

TEST_F(RecoveryFsTest, LoadFromAutoDetectsBinaryDirectory) {
  std::string stats_before;
  {
    auto g = Graphitti::OpenDurable(dir_.string());
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    uint64_t seq = *(*g)->IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGT");
    AnnotationBuilder b;
    b.Title("snap").MarkInterval("flu:seg4", 0, 3, seq);
    ASSERT_TRUE((*g)->Commit(b).ok());
    ASSERT_TRUE((*g)->Checkpoint().ok());
    AnnotationBuilder b2;
    b2.Title("tail").MarkInterval("flu:seg4", 4, 7);
    ASSERT_TRUE((*g)->Commit(b2).ok());
    stats_before = (*g)->Stats().ToString();
  }
  auto loaded = Graphitti::LoadFrom(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Stats().ToString(), stats_before);
  EXPECT_FALSE((*loaded)->IsDurable());
  EXPECT_TRUE((*loaded)->ValidateIntegrity().ok());
}

TEST_F(RecoveryFsTest, LegacyXmlDirectoryIsRefused) {
  // The retired XML/TSV layout: neither entry point may start an empty
  // engine on top of it, and the old files stay untouched.
  fs::create_directories(dir_);
  {
    std::ofstream out(dir_ / "manifest.txt");
    out << "graphitti-save-v1\nnext_object_id\t1\n";
  }
  {
    std::ofstream out(dir_ / "annotations.xml");
    out << "<annotations>\n</annotations>\n";
  }
  EXPECT_TRUE(Graphitti::LoadFrom(dir_.string()).status().IsUnsupported());
  EXPECT_TRUE(Graphitti::OpenDurable(dir_.string()).status().IsUnsupported());
  EXPECT_TRUE(fs::exists(dir_ / "manifest.txt"));
  EXPECT_FALSE(fs::exists(dir_ / persist::WalFileName(0)));
}

}  // namespace
}  // namespace core
}  // namespace graphitti
