// Crash-safe durability: OpenDurable / Checkpoint / recovery edge cases.
// The fault-schedule torture test lives in recovery_fault_test.cc; this file
// covers the recovery state machine on intact (or hand-damaged) directories.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>

#include "core/graphitti.h"
#include "core/workload.h"
#include "persist/fault_env.h"
#include "persist/format.h"
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
  // Replayed commits index their fields at once (keyword search finds
  // them); their content XML stays unparsed until first access.
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

  // Restored content is parsed on demand: an XPath-filtered query touches it.
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
    s.graph.EnsureNode(agraph::NodeRef::Content(999));
    return util::Status::OK();
  });
  EXPECT_TRUE(st.IsUnsupported()) << st.ToString();
  EXPECT_FALSE(ran);
  EXPECT_EQ(g->Stats().ToString(), before);
  EXPECT_EQ(g->engine_epoch(), epoch);
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// kVacuum is a retired record type: a WAL tail that holds one still
// recovers, and the record changes nothing.
TEST(RecoveryTest, RetiredVacuumRecordInTheTailReplaysAsNoOp) {
  FaultInjectionEnv env;
  uint64_t seq = 0;
  annotation::AnnotationId first = 0, second = 0;
  {
    auto g = MustOpen(&env);
    seq = *g->IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGTACGT");
    first = CommitOne(g.get(), "before vacuum", seq);
  }
  {
    auto wal = persist::ReadWal(env, WalPath(0));
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    auto w = persist::WalWriter::Reopen(&env, WalPath(0), 0, *wal, persist::WalOptions{});
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE((*w)->AppendRecord(persist::WalRecordType::kVacuum, "").ok());
  }
  {
    auto g = MustOpen(&env);
    second = CommitOne(g.get(), "after vacuum", seq);
  }
  auto g = MustOpen(&env);
  EXPECT_EQ(g->Stats().num_annotations, 2u);
  EXPECT_NE(g->annotations().Get(first), nullptr);
  EXPECT_NE(g->annotations().Get(second), nullptr);
  std::optional<relational::Row> row = g->GetObjectRow(seq);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0].as_string(), "AF1");
  EXPECT_TRUE(g->ValidateIntegrity().ok());
}

// --- Corrupt but CRC-valid input: hydration fails, nothing aborts ---

// Opens `env`'s directory (deferred hydration must not look at the bytes)
// and expects the first call to fail with kInternal and a second call to
// return the same sticky status.
void ExpectHydrationFailsInternal(FaultInjectionEnv* env, const std::string& what) {
  DurabilityOptions opts;
  opts.env = env;
  auto g = Graphitti::OpenDurable(kDir, opts);
  ASSERT_TRUE(g.ok()) << what << ": " << g.status().ToString();
  auto first = (*g)->Query("FIND CONTENTS WHERE { ?a CONTAINS \"x\" }");
  ASSERT_FALSE(first.ok()) << what;
  EXPECT_TRUE(first.status().IsInternal()) << what << ": " << first.status().ToString();
  auto second = (*g)->Query("FIND CONTENTS WHERE { ?a CONTAINS \"x\" }");
  ASSERT_FALSE(second.ok()) << what;
  EXPECT_EQ(second.status().ToString(), first.status().ToString()) << what;
}

// Writes wal-0 holding `records` after a fresh header.
void WriteWal(FaultInjectionEnv* env, const std::vector<persist::WalRecord>& records) {
  ASSERT_TRUE(env->CreateDirs(kDir).ok());
  auto w = persist::WalWriter::Open(env, WalPath(0), 0, persist::WalOptions{});
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  for (const persist::WalRecord& rec : records) {
    ASSERT_TRUE((*w)->AppendRecord(rec.type, rec.payload).ok());
  }
}

TEST(RecoveryTest, SnapshotReferentCountBeyondBodyFailsHydration) {
  // An empty engine's body up to the referent count, which claims 2^56
  // referents: reserving for it would throw std::length_error.
  persist::Encoder enc;
  enc.PutU32(0);  // coordinate systems
  enc.PutU32(0);  // tables (the built-ins already exist)
  enc.PutU32(0);  // objects
  enc.PutU64(1);  // next object id
  enc.PutU32(0);  // ontologies
  enc.PutU32(0);  // term names
  enc.PutU32(0);  // keyword tokens
  enc.PutU64(uint64_t{1} << 56);  // referents
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDirs(kDir).ok());
  ASSERT_TRUE(persist::WriteSnapshotFile(&env, SnapshotPath(1), 1, enc.buffer()).ok());
  ExpectHydrationFailsInternal(&env, "referent count 2^56");
}

TEST(RecoveryTest, SnapshotZeroColumnRowCountBeyondBodyFailsHydration) {
  // A whole body for a new zero-column table that claims 2^20 rows. Its
  // rows encode to nothing, but each would belong to an object encoded
  // later in the body, so the count cannot exceed the bytes left.
  persist::Encoder enc;
  enc.PutU32(0);  // coordinate systems
  enc.PutU32(1);  // tables
  enc.PutString("empty");
  enc.PutU32(0);                  // columns
  enc.PutU32(0);                  // indexes
  enc.PutU64(uint64_t{1} << 20);  // rows
  enc.PutU32(0);  // objects
  enc.PutU64(1);  // next object id
  enc.PutU32(0);  // ontologies
  enc.PutU32(0);  // term names
  enc.PutU32(0);  // keyword tokens
  enc.PutU64(0);  // referents
  enc.PutU64(0);  // annotations
  enc.PutU64(1);  // next annotation id
  enc.PutU64(1);  // next referent id
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDirs(kDir).ok());
  ASSERT_TRUE(persist::WriteSnapshotFile(&env, SnapshotPath(1), 1, enc.buffer()).ok());
  ExpectHydrationFailsInternal(&env, "zero-column row count 2^20");
}

TEST(RecoveryTest, CommitRecordCountBeyondPayloadFailsHydration) {
  // A commit record claiming 2^32-1 annotations in a 4-byte payload:
  // reserving for them would throw std::bad_alloc.
  persist::Encoder enc;
  enc.PutU32(0xFFFFFFFFu);
  FaultInjectionEnv env;
  WriteWal(&env, {{persist::WalRecordType::kCommitBatch, enc.Take()}});
  ExpectHydrationFailsInternal(&env, "commit count 0xFFFFFFFF");
}

// Coordinate systems and objects that RichBuilder's marks refer to.
struct RichObjects {
  uint64_t seq = 0;
  uint64_t protein = 0;
};

RichObjects RegisterRichObjects(Graphitti* g) {
  EXPECT_TRUE(g->RegisterCoordinateSystem("atlas", 2).ok());
  EXPECT_TRUE(g->RegisterCoordinateSystem("atlas3", 3).ok());
  RichObjects o;
  o.seq = *g->IngestDnaSequence("AF1", "H5N1", "flu:seg4", "ACGTACGT");
  o.protein = *g->IngestDnaSequence("AF2", "H1N1", "flu:seg6", "TTGACA");
  return o;
}

// Sets every field a commit record carries: all 13 Dublin Core fields and
// user tags with XML-special characters, ontology refs, and marks of all
// five substructure kinds with object ids, one of them marked twice.
// `k` shifts the marks so different builders get different referents.
AnnotationBuilder RichBuilder(const std::string& tag, int k, uint64_t object_id) {
  annotation::DublinCore dc;
  dc.title = "title <" + tag + "> & \"q\"";
  dc.creator = "o'creator & co";
  dc.subject = "<subject/>";
  dc.description = "a > b && c < d";
  dc.date = "2026-10-18";
  dc.type = "Text";
  dc.format = "text/xml; charset=\"utf-8\"";
  dc.identifier = "urn:id:" + tag;
  dc.source = "http://example.org/?a=1&b=2";
  dc.language = "en";
  dc.relation = "]]> <![CDATA[";
  dc.coverage = "chr1:1-100";
  dc.rights = "(c) 'all' <rights>";
  AnnotationBuilder b;
  b.DublinCoreFields(dc).Body("body of " + tag + " with <markup> & \"quotes\"");
  b.UserTag("note", "x < y & 'z' > \"w\"");
  b.UserTag("blank", "");
  b.OntologyReference("go", "GO:000" + std::to_string(k % 3));
  b.OntologyReference("so", "SO:" + tag);
  const int64_t lo = 10 + 100 * k;
  b.MarkInterval("flu:seg4", lo, lo + 10, object_id);
  b.MarkRegion("atlas", spatial::Rect::Make2D(0.5 + k, -1.25, 3.75 + k, 4), object_id);
  b.MarkRegion("atlas3", spatial::Rect::Make3D(-0.0, k, 1e-7, 2, k + 1.5, 3), object_id);
  b.MarkNodeSet("ppi", {3, 1, static_cast<uint64_t>(k) + 10}, object_id);
  b.MarkBlockSet("dna_sequences", {0, static_cast<uint64_t>(k) + 1}, object_id);
  b.MarkClade("flu-tree", {7, 8, static_cast<uint64_t>(k) + 20}, object_id);
  b.MarkInterval("flu:seg4", lo, lo + 10, object_id);  // duplicate mark
  return b;
}

TEST(RecoveryTest, EveryCommitRecordPrefixFailsHydration) {
  // A valid commit record carrying every field kind, from a live engine.
  std::vector<persist::WalRecord> records;
  {
    FaultInjectionEnv env;
    {
      auto g = MustOpen(&env);
      RichObjects o = RegisterRichObjects(g.get());
      ASSERT_TRUE(g->Commit(RichBuilder("prefix", 1, o.seq)).ok());
    }
    auto wal = persist::ReadWal(env, WalPath(0));
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    records = std::move(wal->records);
  }
  ASSERT_FALSE(records.empty());
  ASSERT_EQ(records.back().type, persist::WalRecordType::kCommitBatch);
  const std::string payload = records.back().payload;
  {
    // The whole record replays; only its strict prefixes must fail.
    FaultInjectionEnv env;
    WriteWal(&env, records);
    auto g = MustOpen(&env);
    EXPECT_EQ(g->Stats().num_annotations, 1u);
  }
  for (size_t len = 0; len < payload.size(); ++len) {
    FaultInjectionEnv env;
    records.back().payload = payload.substr(0, len);
    WriteWal(&env, records);
    ExpectHydrationFailsInternal(&env, "commit record prefix of " + std::to_string(len) +
                                           " of " + std::to_string(payload.size()) +
                                           " bytes");
  }
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

// The `N` lines of ExportAGraph for every node kind. The graph stores no
// text: each label comes from the record behind the node. They must read
// the same live, after SaveTo/LoadFrom, and after a durable reopen that
// replays a WAL tail.
std::string NodeLines(const Graphitti& g) {
  std::string out;
  std::istringstream in(g.ExportAGraph());
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("N ", 0) == 0) out += line + "\n";
  }
  return out;
}

TEST_F(RecoveryFsTest, ExportAGraphLabelsEveryNodeKind) {
  const std::string durable = (dir_ / "durable").string();
  const std::string saved = (dir_ / "saved").string();
  constexpr uint64_t kNeverRegistered = 77;
  // Node order is insertion order, with a removed node's slot taken by the
  // last node; a restore wires in commit order and replays the tail's
  // removal, so every engine below lists the same order.
  const std::string kExpected =
      "N O 1 notes/row0\n"
      "N C 1 titled\n"
      "N R 1 interval@flu:seg1[10,20]\n"
      "N T 1 go:GO:1\n"
      "N C 2 annotation-2\n"
      "N R 2 region@atlas[(0.000000,4.000000) x (0.000000,4.000000)]\n"
      "N O 77\n"
      "N T 2 go:GO:2\n";
  {
    auto opened = Graphitti::OpenDurable(durable);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Graphitti& g = **opened;
    ASSERT_TRUE(g.RegisterCoordinateSystem("atlas", 2).ok());
    ASSERT_TRUE(
        g.CreateTable("notes", relational::SchemaBuilder().Str("text", false).Build()).ok());
    auto note = g.IngestRecord("notes", {relational::Value::Str("first")});
    ASSERT_TRUE(note.ok()) << note.status().ToString();
    AnnotationBuilder titled;
    titled.Title("titled").MarkInterval("flu:seg1", 10, 20, *note);
    titled.OntologyReference("go", "GO:1");
    ASSERT_TRUE(g.Commit(titled).ok());
    ASSERT_TRUE(g.Checkpoint().ok());

    // The WAL tail: an untitled annotation whose region marks an object id
    // that is never registered, and a term whose only annotation goes.
    AnnotationBuilder untitled;
    untitled.Body("no title").MarkRegion("atlas", spatial::Rect::Make2D(0, 0, 4, 4),
                                         kNeverRegistered);
    untitled.OntologyReference("go", "GO:1");
    ASSERT_TRUE(g.Commit(untitled).ok());
    AnnotationBuilder doomed;
    doomed.Title("doomed").MarkInterval("flu:seg1", 500, 600);
    doomed.OntologyReference("go", "GO:2");
    auto doomed_id = g.Commit(doomed);
    ASSERT_TRUE(doomed_id.ok()) << doomed_id.status().ToString();
    ASSERT_TRUE(g.RemoveAnnotation(*doomed_id).ok());
    ASSERT_TRUE(g.SaveTo(saved).ok());
    EXPECT_EQ(NodeLines(g), kExpected);
  }
  auto loaded = Graphitti::LoadFrom(saved);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(NodeLines(**loaded), kExpected);
  auto reopened = Graphitti::OpenDurable(durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(NodeLines(**reopened), kExpected);
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

// Every file in `dir` by name, with its bytes.
std::map<std::string, std::string> DirContents(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    out[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return out;
}

TEST_F(RecoveryFsTest, Version1WalIsRefused) {
  // A version-1 WAL carries commit records this build cannot decode. Next
  // to a valid snapshot, neither entry point may replay it or start over
  // it, and no file changes.
  {
    auto g = Graphitti::OpenDurable(dir_.string());
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    CommitOne(g->get(), "in snapshot");
    ASSERT_TRUE((*g)->Checkpoint().ok());
    CommitOne(g->get(), "in tail");
  }
  const fs::path wal = dir_ / persist::WalFileName(1);
  {
    std::fstream f(wal, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // the u32 version after the magic
    const char v1[4] = {1, 0, 0, 0};
    f.write(v1, 4);
  }
  const std::map<std::string, std::string> before = DirContents(dir_);
  ASSERT_EQ(before.size(), 2u);

  auto loaded = Graphitti::LoadFrom(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsUnsupported()) << loaded.status().ToString();
  auto opened = Graphitti::OpenDurable(dir_.string());
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsUnsupported()) << opened.status().ToString();
  for (const util::Status& st : {loaded.status(), opened.status()}) {
    EXPECT_NE(st.ToString().find("version 1"), std::string::npos) << st.ToString();
    EXPECT_NE(st.ToString().find("version 2"), std::string::npos) << st.ToString();
  }
  EXPECT_EQ(DirContents(dir_), before);
}

// Everything a replayed engine must agree on with the live one.
struct EngineImage {
  std::string agraph;
  std::map<annotation::AnnotationId, std::string> contents;
  std::vector<std::tuple<annotation::ReferentId, size_t, uint64_t, std::string>> referents;

  bool operator==(const EngineImage& o) const {
    return agraph == o.agraph && contents == o.contents && referents == o.referents;
  }
};

EngineImage ImageOf(const Graphitti& g) {
  EngineImage img;
  img.agraph = g.ExportAGraph();
  const annotation::AnnotationStore& store = g.annotations();
  store.ForEachAnnotation([&](annotation::AnnotationId id, const annotation::Annotation& a) {
    img.contents[id] = store.ContentXml(a);
  });
  store.ForEachReferent([&](annotation::ReferentId id, const annotation::Referent& r) {
    img.referents.emplace_back(id, r.refcount, r.object_id, r.substructure.ToString());
  });
  return img;
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST_F(RecoveryFsTest, CommitRecordFieldsSurviveReplay) {
  FaultInjectionEnv env;
  EngineImage live;
  std::vector<annotation::AnnotationId> tail_kept;
  {
    auto g = MustOpen(&env);
    RichObjects o = RegisterRichObjects(g.get());
    // In the snapshot: an interval with no object, which a tail commit
    // later adopts, and an annotation the tail removes.
    AnnotationBuilder unowned;
    unowned.Title("unowned").MarkInterval("flu:seg4", 5000, 5100);
    ASSERT_TRUE(g->Commit(unowned).ok());
    auto doomed = g->Commit(RichBuilder("snapshot", 0, o.seq));
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    ASSERT_TRUE(g->Checkpoint().ok());

    // The tail: a single commit, a batch, adoptions, removes.
    auto one = g->Commit(RichBuilder("one", 1, o.seq));
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    auto batch = g->CommitBatch({RichBuilder("two", 2, o.protein), RichBuilder("three", 1, 0),
                                 RichBuilder("four", 4, 0)});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    AnnotationBuilder adopt_snapshot;
    adopt_snapshot.Title("adopts snapshot referent").MarkInterval("flu:seg4", 5000, 5100, o.seq);
    auto adopt1 = g->Commit(adopt_snapshot);
    ASSERT_TRUE(adopt1.ok());
    // "four" marked its referents with no object; this adopts them.
    auto adopt2 = g->Commit(RichBuilder("five", 4, o.protein));
    ASSERT_TRUE(adopt2.ok());
    ASSERT_TRUE(g->RemoveAnnotation(*doomed).ok());
    ASSERT_TRUE(g->RemoveAnnotation((*batch)[0]).ok());
    tail_kept = {*one, (*batch)[1], (*batch)[2], *adopt1, *adopt2};

    const annotation::Referent* adopted = g->annotations().GetReferent(
        *g->annotations().FindReferent(substructure::Substructure::MakeInterval(
            "flu:seg4", spatial::Interval(5000, 5100))));
    ASSERT_NE(adopted, nullptr);
    EXPECT_EQ(adopted->object_id, o.seq);
    ASSERT_TRUE(g->ValidateIntegrity().ok());
    live = ImageOf(*g);
    ASSERT_TRUE(g->SaveTo((dir_ / "live").string()).ok());
  }
  const std::string live_save = ReadBytes(dir_ / "live" / persist::SnapshotFileName(1));
  ASSERT_FALSE(live_save.empty());

  DurabilityOptions opts;
  opts.env = &env;
  auto opened = Graphitti::OpenDurable(kDir, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Graphitti& g = **opened;
  EXPECT_TRUE(ImageOf(g) == live);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
  const fs::path save = dir_ / "reopened";
  ASSERT_TRUE(g.SaveTo(save.string()).ok());
  EXPECT_TRUE(ReadBytes(save / persist::SnapshotFileName(1)) == live_save);

  // The tail's content stays unparsed until an XQuery reads the
  // collection, which parses it: each document is the logged XML parsed.
  auto hits = g.annotations().XQuerySearch(
      "for $a in collection()/annotation where contains($a/body, 'quotes') return $a");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  std::vector<annotation::AnnotationId> expected = tail_kept;
  expected.erase(std::remove(expected.begin(), expected.end(), tail_kept[3]), expected.end());
  EXPECT_EQ(*hits, expected);
  EngineImage hydrated = ImageOf(g);
  EXPECT_EQ(hydrated.agraph, live.agraph);
  EXPECT_TRUE(hydrated.referents == live.referents);
  ASSERT_EQ(hydrated.contents.size(), live.contents.size());
  for (const auto& [id, xml] : live.contents) {
    EXPECT_EQ(hydrated.contents[id], xml) << "annotation " << id;
  }
}

}  // namespace
}  // namespace core
}  // namespace graphitti
