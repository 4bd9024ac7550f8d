// Multi-threaded stress tests for the engine's epoch-pinned copy-on-write
// concurrency (util/epoch.h wired through core::Graphitti): N reader
// threads issue fig-3-style queries while a writer commits and removes
// annotations, and every result must be snapshot-consistent — a reader
// may see the engine before or after any given commit, but never in
// between (writers build the next version off to the side and publish it
// with one pointer swing; readers pin the version they entered on).
//
// The torn-read detector: every "sentinel" annotation the writer commits
// marks exactly TWO fresh intervals, so the number of distinct referents
// joined through sentinel contents is even in every committed state. A
// reader observing an odd count caught a half-applied commit (content and
// first ANNOTATES edge in, second referent not yet indexed) — precisely
// the anomaly class version publication exists to rule out.
//
// Run under TSan in CI (see .github/workflows/ci.yml): the invariants
// catch torn *values*, TSan catches torn *memory*.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/graphitti.h"

namespace graphitti {
namespace core {
namespace {

namespace fs = std::filesystem;
using annotation::AnnotationBuilder;
using annotation::AnnotationId;

constexpr size_t kStableAnnotations = 24;

// Thread-safe failure sink: gtest assertions are not safe off the main
// thread, so worker threads record violations and the main thread asserts
// after joining.
class Failures {
 public:
  void Add(std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 20) messages_.push_back(std::move(message));
  }
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> messages_;
};

// A small static corpus the writer never touches: 4 sequences on domain
// chrQ, kStableAnnotations annotations whose bodies carry the unique token
// "stalwart" and which mark one distinct chrQ interval each. Reader-side
// counts over this corpus are invariant for the whole test.
void BuildStableCorpus(Graphitti* g) {
  std::vector<uint64_t> objects;
  for (int i = 0; i < 4; ++i) {
    auto obj = g->IngestDnaSequence("STB" + std::to_string(i), "H5N1", "chrQ",
                                    std::string(200, 'A'));
    ASSERT_TRUE(obj.ok());
    objects.push_back(*obj);
  }
  for (size_t i = 0; i < kStableAnnotations; ++i) {
    AnnotationBuilder b;
    b.Title("stable " + std::to_string(i))
        .Creator("curator")
        .Body("stalwart baseline annotation number " + std::to_string(i))
        .MarkInterval("chrQ", static_cast<int64_t>(i) * 10,
                      static_cast<int64_t>(i) * 10 + 5, objects[i % objects.size()]);
    ASSERT_TRUE(g->Commit(b).ok());
  }
}

// One writer cycle: commit a sentinel annotation marking two fresh chrS
// intervals; remember it for a later (also gated) removal. Runs on writer
// threads, so failures go through the sink, never through gtest macros.
AnnotationId CommitSentinel(Graphitti* g, uint64_t cycle, Failures* failures) {
  int64_t base = static_cast<int64_t>(cycle) * 16;
  AnnotationBuilder b;
  b.Title("sentinel " + std::to_string(cycle))
      .Creator("writer")
      .Body("sentinel churn annotation")
      .MarkInterval("chrS", base, base + 5)
      .MarkInterval("chrS", base + 6, base + 11);
  auto id = g->Commit(b);
  if (!id.ok()) {
    failures->Add("sentinel commit failed: " + id.status().ToString());
    return 0;
  }
  return *id;
}

void ReaderLoop(const Graphitti& g, size_t iterations, Failures* failures,
                std::atomic<size_t>* queries_served) {
  const std::string parity_query =
      "FIND COUNT ?r WHERE { ?c CONTAINS \"sentinel\" ; ?c ANNOTATES ?r ; "
      "?r IS REFERENT }";
  const std::string stable_query = "FIND CONTENTS WHERE { ?a CONTAINS \"stalwart\" }";
  const std::string graph_query =
      "FIND GRAPH WHERE { ?a CONTAINS \"stalwart\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s ; ?s DOMAIN \"chrQ\" } LIMIT 5 PAGE 1";

  for (size_t i = 0; i < iterations; ++i) {
    // (1) The static corpus is untouched by the writer: its count is exact.
    auto stable = g.Query(stable_query);
    if (!stable.ok()) {
      failures->Add("stable query failed: " + stable.status().ToString());
    } else if (stable->items.size() != kStableAnnotations) {
      failures->Add("stable count " + std::to_string(stable->items.size()) +
                    " != " + std::to_string(kStableAnnotations));
    }

    // (2) Torn-read parity: sentinels always contribute referents in pairs.
    auto parity = g.Query(parity_query);
    if (!parity.ok()) {
      failures->Add("parity query failed: " + parity.status().ToString());
    } else if (parity->items.size() != 1) {
      failures->Add("parity query produced no count item");
    } else if (parity->items[0].count % 2 != 0) {
      failures->Add("TORN READ: odd sentinel referent count " +
                    std::to_string(parity->items[0].count));
    }

    // (3) Paged GRAPH query + a page flip: lazy subgraph materialization
    // through ConnectBatch, under the gate, against stable terminals only.
    auto graph = g.Query(graph_query);
    if (!graph.ok()) {
      failures->Add("graph query failed: " + graph.status().ToString());
    } else {
      if (graph->total_pages < 2) {
        failures->Add("graph query lost rows: " + std::to_string(graph->total_pages) +
                      " pages");
      }
      auto flip = g.MaterializePage(&*graph, 2);
      if (!flip.ok()) {
        failures->Add("page flip failed: " + flip.ToString());
      } else {
        for (size_t k = graph->page_first; k < graph->page_first + graph->page_count;
             ++k) {
          const auto& item = graph->items[k];
          const std::string label = graph->LabelOf(item);
          if (!item.subgraph_ready || label.rfind("subgraph(", 0) != 0) {
            failures->Add("page-2 item not materialized: " + label);
          }
          // Stable rows join one content to one referent: never disconnected.
          if (label == "subgraph(disconnected)") {
            failures->Add("stable row materialized disconnected");
          }
        }
      }
    }

    // (4) Assorted shared-side surfaces.
    if (i % 8 == 0) {
      SystemStats stats = g.Stats();
      if (stats.num_annotations < kStableAnnotations) {
        failures->Add("stats lost stable annotations: " +
                      std::to_string(stats.num_annotations));
      }
      if (g.num_objects() < 4) failures->Add("objects disappeared");
    }
    queries_served->fetch_add(3, std::memory_order_relaxed);
  }
}

TEST(ConcurrencyStressTest, ReadersKeepServingDuringCommitsAndRemovals) {
  Graphitti g;
  BuildStableCorpus(&g);

  constexpr size_t kReaders = 4;
  constexpr size_t kReaderIterations = 60;
  constexpr size_t kWriterCycles = 300;

  Failures failures;
  std::atomic<size_t> queries_served{0};
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    std::vector<AnnotationId> live;
    for (uint64_t cycle = 0; cycle < kWriterCycles; ++cycle) {
      AnnotationId id = CommitSentinel(&g, cycle, &failures);
      if (id != 0) live.push_back(id);
      // Keep a rolling window of ~8 live sentinels so removals constantly
      // race the readers too.
      if (live.size() > 8) {
        auto status = g.RemoveAnnotation(live.front());
        if (!status.ok()) failures.Add("remove failed: " + status.ToString());
        live.erase(live.begin());
      }
    }
    for (AnnotationId id : live) (void)g.RemoveAnnotation(id);
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(
        [&] { ReaderLoop(g, kReaderIterations, &failures, &queries_served); });
  }
  for (std::thread& t : readers) t.join();
  writer.join();

  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(queries_served.load(), kReaders * kReaderIterations * 3);

  // Post-stress: all sentinels removed, stable corpus intact, cross-store
  // invariants hold.
  auto count = g.Query("FIND COUNT ?c WHERE { ?c CONTAINS \"sentinel\" }");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->items[0].count, 0u);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
  EXPECT_EQ(g.Stats().num_annotations, kStableAnnotations);
}

// Regression (ISSUE 4 satellite): a Commit racing a long-running Query must
// never yield a torn read. The reader hammers the parity join while the
// writer commits and immediately removes two-referent annotations — the
// tightest possible interleaving of the two gate sides. Repeat-under-load:
// every single reader iteration asserts the invariant.
TEST(ConcurrencyStressTest, CommitRacingQueryNeverTearsBindings) {
  Graphitti g;
  BuildStableCorpus(&g);

  Failures failures;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t cycle = 1u << 20;  // disjoint interval range from other tests
    while (!stop.load(std::memory_order_acquire)) {
      AnnotationId id = CommitSentinel(&g, cycle++, &failures);
      if (id != 0) {
        auto status = g.RemoveAnnotation(id);
        if (!status.ok()) failures.Add("remove failed: " + status.ToString());
      }
    }
  });

  const std::string join_query =
      "FIND REFERENTS WHERE { ?c CONTAINS \"sentinel\" ; ?c ANNOTATES ?r ; "
      "?r IS REFERENT }";
  for (size_t i = 0; i < 200; ++i) {
    auto r = g.Query(join_query);
    if (!r.ok()) {
      failures.Add("join query failed: " + r.status().ToString());
      continue;
    }
    // Every sentinel contributes exactly 2 referents; a commit is visible
    // either fully (both referents bound) or not at all.
    if (r->items.size() % 2 != 0) {
      failures.Add("TORN READ: " + std::to_string(r->items.size()) +
                   " sentinel referents");
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

// Mutation exclusivity: concurrent writers serialize; no lost updates, no
// duplicate ids, and the cross-store pipeline stays consistent.
TEST(ConcurrencyStressTest, ConcurrentWritersSerializeCleanly) {
  Graphitti g;
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 50;

  std::vector<std::vector<AnnotationId>> ids(kWriters);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&g, &ids, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        AnnotationBuilder b;
        int64_t base = static_cast<int64_t>(w) * 100000 + static_cast<int64_t>(i) * 10;
        b.Title("writer " + std::to_string(w) + " #" + std::to_string(i))
            .Body("parallel ingest")
            .MarkInterval("chrW" + std::to_string(w), base, base + 5);
        auto id = g.Commit(b);
        if (id.ok()) ids[w].push_back(*id);
      }
    });
  }
  for (std::thread& t : writers) t.join();

  std::vector<AnnotationId> all;
  for (const auto& per_writer : ids) {
    EXPECT_EQ(per_writer.size(), kPerWriter);
    all.insert(all.end(), per_writer.begin(), per_writer.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "duplicate annotation ids issued";
  EXPECT_EQ(g.Stats().num_annotations, kWriters * kPerWriter);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

// Nested reads: resolver callbacks re-enter the read path under an outer
// Query. With epoch pins this is trivially safe (pins nest freely and
// writers never block readers), but the test stays as a regression against
// reintroducing a lock that a writer could wedge between the two
// acquisitions.
TEST(ConcurrencyStressTest, ReentrantReadsSurviveWriterPressure) {
  Graphitti g;
  BuildStableCorpus(&g);
  Failures failures;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t cycle = 1u << 24;
    while (!stop.load(std::memory_order_acquire)) {
      AnnotationId id = CommitSentinel(&g, cycle++, &failures);
      if (id != 0) (void)g.RemoveAnnotation(id);
    }
  });
  // TABLE clauses force the executor to call back into FindObjects — a
  // nested (reentrant) shared acquisition under the outer Query hold.
  for (size_t i = 0; i < 100; ++i) {
    auto r = g.Query(
        "FIND CONTENTS WHERE { ?o TABLE dna_sequences ; ?s OF ?o ; "
        "?a ANNOTATES ?s }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->items.size(), kStableAnnotations);
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
}

// ---------------------------------------------------------------------
// Epoch invariants (copy-on-write version publication, util/epoch.h).
// ---------------------------------------------------------------------

std::string DumpSubgraph(const query::QueryResult& result, const query::ResultItem& item) {
  std::string out = result.LabelOf(item) + "|";
  for (const auto& n : item.subgraph.nodes) out += n.ToString() + ",";
  out += "|";
  for (const auto& e : item.subgraph.edges) {
    out += e.from.ToString() + ">" + e.to.ToString() + ":" + e.label + ";";
  }
  return out;
}

// A result pinned before a burst of commits is a frozen snapshot: every
// read through it — including page materializations that run arbitrarily
// long after the commits — answers from the version the query ran on,
// bit-identically to a materialization taken before the churn.
TEST(ConcurrencyStressTest, PinnedReaderSeesFrozenSnapshotAcrossCommits) {
  Graphitti g;
  BuildStableCorpus(&g);

  const std::string graph_query =
      "FIND GRAPH WHERE { ?a CONTAINS \"stalwart\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s ; ?s DOMAIN \"chrQ\" } LIMIT 4 PAGE 1";

  // Reference: same query, every page materialized before any churn.
  auto reference = g.Query(graph_query);
  ASSERT_TRUE(reference.ok());
  ASSERT_GE(reference->total_pages, 3u);
  for (size_t p = 2; p <= reference->total_pages; ++p) {
    ASSERT_TRUE(g.MaterializePage(&*reference, p).ok());
  }

  // Subject: only page 1 materialized; the rest flips after the commits.
  auto subject = g.Query(graph_query);
  ASSERT_TRUE(subject.ok());
  ASSERT_EQ(subject->total_pages, reference->total_pages);

  Failures failures;
  for (uint64_t cycle = 1u << 26; cycle < (1u << 26) + 64; ++cycle) {
    AnnotationId id = CommitSentinel(&g, cycle, &failures);
    ASSERT_NE(id, 0u);
    // Mutate the stable domain's object graph too: new annotations on the
    // same objects the pinned rows terminate in.
    AnnotationBuilder b;
    b.Title("churn").Body("churn stalwart-adjacent")
        .MarkInterval("chrQ", 5000 + static_cast<int64_t>(cycle % 64) * 8,
                      5000 + static_cast<int64_t>(cycle % 64) * 8 + 3);
    ASSERT_TRUE(g.Commit(b).ok());
  }
  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;

  for (size_t p = 1; p <= subject->total_pages; ++p) {
    ASSERT_TRUE(g.MaterializePage(&*subject, p).ok());
    ASSERT_TRUE(g.MaterializePage(&*reference, p).ok());
    ASSERT_EQ(subject->page_count, reference->page_count);
    for (size_t k = 0; k < subject->page_count; ++k) {
      const auto& got = subject->items[subject->page_first + k];
      const auto& want = reference->items[reference->page_first + k];
      EXPECT_TRUE(got.subgraph_ready);
      EXPECT_EQ(DumpSubgraph(*subject, got), DumpSubgraph(*reference, want))
          << "page " << p << " item " << k
          << " diverged under writer churn (snapshot not frozen)";
    }
  }

  // A fresh query, by contrast, sees the churn ("adjacent" appears only
  // in the 64 churn bodies; the sentinels say "churn" too).
  auto fresh = g.Query("FIND COUNT ?c WHERE { ?c CONTAINS \"adjacent\" }");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->items[0].count, 64u);
}

// Retired versions reclaim on drain: a pinned result holds its version
// alive across any number of commits, but the intermediate versions are
// recycled eagerly and dropping the last pin releases the old version on
// the next publish. The version count never tracks the commit count.
TEST(ConcurrencyStressTest, VersionsReclaimWhenPinsDrain) {
  Graphitti g;
  BuildStableCorpus(&g);
  Failures failures;

  const size_t baseline = g.live_engine_versions();
  {
    auto pinned = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"stalwart\" }");
    ASSERT_TRUE(pinned.ok());
    const uint64_t pinned_epoch = g.engine_epoch();
    for (uint64_t cycle = 1u << 27; cycle < (1u << 27) + 100; ++cycle) {
      ASSERT_NE(CommitSentinel(&g, cycle, &failures), 0u);
    }
    EXPECT_GT(g.engine_epoch(), pinned_epoch);
    // Pinned version + current + at most one retained standby.
    EXPECT_LE(g.live_engine_versions(), baseline + 2)
        << "intermediate versions leaked under a long-lived pin";
    // The pinned result still answers from its snapshot.
    EXPECT_EQ(pinned->items.size(), kStableAnnotations);
  }
  // Pin dropped: the next commit lets the old version retire for good.
  ASSERT_NE(CommitSentinel(&g, (1u << 27) + 100, &failures), 0u);
  EXPECT_LE(g.live_engine_versions(), baseline + 1);
  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
}

// Reclamation raced from many threads: readers constantly pin and drop
// while a writer churns versions. TSan checks the memory; afterwards the
// version list must have collapsed back to a bounded size and the engine
// must still validate.
TEST(ConcurrencyStressTest, VersionReclamationSurvivesPinRaces) {
  Graphitti g;
  BuildStableCorpus(&g);
  Failures failures;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    uint64_t cycle = 1u << 28;
    while (!stop.load(std::memory_order_acquire)) {
      AnnotationId id = CommitSentinel(&g, cycle++, &failures);
      if (id != 0) (void)g.RemoveAnnotation(id);
    }
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (size_t i = 0; i < 80; ++i) {
        auto res = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"stalwart\" }");
        if (!res.ok()) {
          failures.Add("query failed: " + res.status().ToString());
        } else if (res->items.size() != kStableAnnotations) {
          failures.Add("snapshot count drifted: " + std::to_string(res->items.size()));
        }
        // Results (and their pins) drop immediately: constant pin churn.
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  EXPECT_LE(g.live_engine_versions(), 2u) << "versions leaked after pins drained";
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

// ---------------------------------------------------------------------
// Governance under concurrency (PR 10): deadline and cancellation stops
// must be clean — a governed reader aborts with exactly its governance
// status (or completes), never crashes, never tears state, and never
// degrades the engine — while a writer keeps publishing at full speed.
// Run under TSan in CI like the rest of this file.
// ---------------------------------------------------------------------

TEST(ConcurrencyStressTest, TightDeadlineReadersRaceASaturatingWriter) {
  Graphitti g;
  BuildStableCorpus(&g);
  Failures failures;
  std::atomic<bool> stop{false};
  std::atomic<size_t> deadline_stops{0};

  std::thread writer([&] {
    uint64_t cycle = 1u << 29;
    while (!stop.load(std::memory_order_acquire)) {
      AnnotationId id = CommitSentinel(&g, cycle++, &failures);
      if (id != 0) (void)g.RemoveAnnotation(id);
    }
  });

  // Readers alternate deadlines from "instant" to "comfortable": some
  // queries must die to the deadline, some must finish; nothing else is
  // acceptable.
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      const std::string q =
          "FIND CONTENTS WHERE { ?a CONTAINS \"stalwart\" ; ?s IS REFERENT ; "
          "?a ANNOTATES ?s }";
      for (size_t i = 0; i < 60; ++i) {
        query::ExecutorOptions opts;
        // Three tiers: already-expired (must stop at the entry check),
        // hair-trigger (either outcome), and comfortable (should finish).
        const auto budget = (i % 3 == 0) ? std::chrono::microseconds(0)
                           : (i % 3 == 1)
                               ? std::chrono::microseconds(200)
                               : std::chrono::microseconds(500000);
        opts.deadline = util::Deadline::After(budget);
        auto res = g.Query(q, opts);
        if (res.ok()) {
          if (res->stats.stop_reason != query::StopReason::kCompleted) {
            failures.Add("ok result with stop reason " +
                         std::string(query::StopReasonName(res->stats.stop_reason)));
          } else if (res->items.size() != kStableAnnotations) {
            failures.Add("governed snapshot drifted: " +
                         std::to_string(res->items.size()));
          }
        } else if (res.status().IsDeadlineExceeded()) {
          deadline_stops.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.Add("unexpected status: " + res.status().ToString());
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  // The 1µs tier cannot finish a join on this corpus: the sweep must have
  // produced real deadline stops, and they must not have degraded the
  // engine or poisoned later queries.
  EXPECT_GT(deadline_stops.load(), 0u);
  EXPECT_EQ(g.Health().mode, EngineMode::kServing);
  EXPECT_GE(g.Health().deadline_exceeded, deadline_stops.load());
  auto after = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"stalwart\" }");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->items.size(), kStableAnnotations);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

TEST(ConcurrencyStressTest, SharedTokenCancellationIsCleanAcrossThreads) {
  Graphitti g;
  BuildStableCorpus(&g);
  Failures failures;
  std::atomic<bool> stop{false};
  std::atomic<size_t> cancelled_stops{0};
  util::CancellationToken token = util::CancellationToken::Create();

  // The canceller flips the shared flag on and off: readers must observe
  // either a clean completion or a clean kCancelled, nothing in between.
  std::thread canceller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      token.RequestCancel();
      std::this_thread::yield();
      token.Reset();
    }
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      query::ExecutorOptions opts;
      opts.cancel = token;
      for (size_t i = 0; i < 80; ++i) {
        auto res = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"stalwart\" }", opts);
        if (res.ok()) {
          if (res->items.size() != kStableAnnotations) {
            failures.Add("cancelled-era snapshot drifted: " +
                         std::to_string(res->items.size()));
          }
        } else if (res.status().IsCancelled()) {
          cancelled_stops.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.Add("unexpected status: " + res.status().ToString());
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  canceller.join();

  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  EXPECT_EQ(g.Health().mode, EngineMode::kServing);
  token.Reset();
  query::ExecutorOptions opts;
  opts.cancel = token;
  auto after = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"stalwart\" }", opts);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->items.size(), kStableAnnotations);
}

// SaveTo encodes a pinned version outside commit_mu_ while a writer keeps
// registering objects and committing annotations that mark them. Every
// save must load back as one commit-consistent state: integrity holds and
// the annotation count lies between the live counts taken just before and
// just after that save. The writer is bounded so the engine stays small
// however the saves and commits interleave.
TEST(ConcurrencyStressTest, SaveToRacingAWriterLoadsConsistentState) {
  Graphitti g;
  constexpr size_t kWriterCycles = 2000;
  constexpr size_t kSaves = 20;

  Failures failures;
  std::thread writer([&] {
    for (size_t i = 0; i < kWriterCycles; ++i) {
      auto obj = g.IngestDnaSequence("RACE" + std::to_string(i), "H5N1", "chrR",
                                     std::string(32, 'A'));
      if (!obj.ok()) {
        failures.Add("ingest failed: " + obj.status().ToString());
        continue;
      }
      AnnotationBuilder b;
      int64_t base = static_cast<int64_t>(i) * 10;
      b.Title("raced " + std::to_string(i))
          .Body("save race")
          .MarkInterval("chrR", base, base + 5, *obj);
      auto id = g.Commit(b);
      if (!id.ok()) failures.Add("commit failed: " + id.status().ToString());
    }
  });

  // Saves run while the writer commits; the loads wait until it is done.
  const fs::path root =
      fs::temp_directory_path() /
      ("graphitti_save_race_" + std::to_string(reinterpret_cast<uintptr_t>(&g)));
  std::error_code ec;
  fs::remove_all(root, ec);
  struct Save {
    std::string dir;
    size_t before = 0;
    size_t after = 0;
    util::Status status;
  };
  std::vector<Save> saves(kSaves);
  for (size_t round = 0; round < kSaves; ++round) {
    Save& save = saves[round];
    save.dir = (root / std::to_string(round)).string();
    save.before = g.Stats().num_annotations;
    save.status = g.SaveTo(save.dir);
    save.after = g.Stats().num_annotations;
  }
  writer.join();

  for (const Save& save : saves) {
    if (!save.status.ok()) {
      ADD_FAILURE() << save.dir << ": " << save.status.ToString();
      continue;
    }
    auto loaded = Graphitti::LoadFrom(save.dir);
    if (!loaded.ok()) {
      ADD_FAILURE() << save.dir << ": " << loaded.status().ToString();
      continue;
    }
    const size_t count = (*loaded)->Stats().num_annotations;
    EXPECT_GE(count, save.before) << save.dir;
    EXPECT_LE(count, save.after) << save.dir;
    util::Status integrity = (*loaded)->ValidateIntegrity();
    EXPECT_TRUE(integrity.ok()) << save.dir << ": " << integrity.ToString();
  }
  fs::remove_all(root, ec);

  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  EXPECT_EQ(g.Stats().num_annotations, kWriterCycles);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

// An ingest registers its object before it publishes the version holding
// the row. ValidateIntegrity running between the two must not report the
// registered object as pointing at a dead row of the version it pinned.
TEST(ConcurrencyStressTest, IntegrityCheckRacingIngestsReportsNoDeadRow) {
  Graphitti g;
  constexpr size_t kIngests = 1000;
  std::atomic<bool> done{false};
  Failures failures;
  std::thread writer([&] {
    for (size_t i = 0; i < kIngests; ++i) {
      auto obj = g.IngestDnaSequence("ROW" + std::to_string(i), "H5N1", "chrR", "ACGT");
      if (!obj.ok()) failures.Add("ingest failed: " + obj.status().ToString());
    }
    done.store(true, std::memory_order_release);
  });
  size_t checks = 0;
  while (!done.load(std::memory_order_acquire)) {
    util::Status integrity = g.ValidateIntegrity();
    ++checks;
    if (!integrity.ok()) {
      failures.Add("check " + std::to_string(checks) + ": " + integrity.ToString());
    }
  }
  writer.join();
  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  EXPECT_EQ(g.num_objects(), kIngests);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
}

// Stats and num_objects count an object only once the version they pinned
// holds its row, so an ingest in flight (registered, not yet published) is
// never counted ahead of its row. The engine's only rows are the ingested
// objects, so every Stats call must see as many objects as rows.
TEST(ConcurrencyStressTest, StatsRacingIngestsCountObjectsAtTheVersionCut) {
  Graphitti g;
  constexpr size_t kIngests = 3000;
  std::atomic<bool> done{false};
  Failures failures;
  std::thread writer([&] {
    for (size_t i = 0; i < kIngests; ++i) {
      auto obj = g.IngestDnaSequence("ROW" + std::to_string(i), "H5N1", "chrR", "ACGT");
      if (!obj.ok()) failures.Add("ingest failed: " + obj.status().ToString());
    }
    done.store(true, std::memory_order_release);
  });
  size_t calls = 0;
  size_t mismatches = 0;
  while (!done.load(std::memory_order_acquire)) {
    SystemStats before = g.Stats();
    const size_t objects = g.num_objects();
    SystemStats after = g.Stats();
    calls += 3;
    for (const SystemStats& s : {before, after}) {
      if (s.num_objects != s.total_rows) {
        ++mismatches;
        failures.Add("Stats: objects=" + std::to_string(s.num_objects) +
                     " rows=" + std::to_string(s.total_rows));
      }
    }
    // Versions only grow, so num_objects() falls between the two.
    if (objects < before.total_rows || objects > after.total_rows) {
      ++mismatches;
      failures.Add("num_objects()=" + std::to_string(objects) + " outside rows [" +
                   std::to_string(before.total_rows) + ", " +
                   std::to_string(after.total_rows) + "]");
    }
  }
  writer.join();
  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  EXPECT_EQ(mismatches, 0u) << "in " << calls << " calls";
  EXPECT_EQ(g.num_objects(), kIngests);
  EXPECT_EQ(g.Stats().num_objects, g.Stats().total_rows);
}

// Content a restart replays from the WAL tail stays unparsed, like a
// restored snapshot's, until its first access parses it once for every
// version that shares it. Readers race each other through that first access
// while a writer commits (cloning the store, which shares the content);
// every reader must see every document whole.
TEST(ConcurrencyStressTest, ReplayedColdContentHydratesUnderConcurrentReaders) {
  constexpr size_t kSnapshot = 40;
  constexpr size_t kTail = 60;
  constexpr int kReaders = 4;
  const fs::path dir = fs::temp_directory_path() /
                       ("graphitti_cold_race_" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto cold = [](size_t i) {
    AnnotationBuilder b;
    b.Title("cold " + std::to_string(i)).Body("parked until read");
    b.MarkInterval("chrC", static_cast<int64_t>(i) * 10, static_cast<int64_t>(i) * 10 + 5);
    return b;
  };
  {
    auto g = Graphitti::OpenDurable(dir.string());
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    std::vector<AnnotationBuilder> base;
    for (size_t i = 0; i < kSnapshot; ++i) base.push_back(cold(i));
    ASSERT_TRUE((*g)->CommitBatch(base).ok());
    ASSERT_TRUE((*g)->Checkpoint().ok());
    for (size_t i = kSnapshot; i < kSnapshot + kTail; ++i) {
      ASSERT_TRUE((*g)->Commit(cold(i)).ok());
    }
  }
  std::vector<std::string> expected;
  for (size_t i = 0; i < kSnapshot + kTail; ++i) {
    expected.push_back("<dc:title>cold " + std::to_string(i) + "</dc:title>");
  }

  auto opened = Graphitti::OpenDurable(dir.string());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Graphitti& g = **opened;
  Failures failures;
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int round = 0; round < 5; ++round) {
        auto res = g.Query(
            "FIND FRAGMENTS ?a XPATH \"/annotation/dc:title\" WHERE { ?a CONTAINS \"cold\" }");
        if (!res.ok()) {
          failures.Add("query failed: " + res.status().ToString());
          return;
        }
        std::vector<std::string> got;
        for (const query::ResultItem& item : res->items) got.push_back(item.fragment);
        if (got != expected) failures.Add("reader saw " + std::to_string(got.size()) +
                                          " fragments, not the " +
                                          std::to_string(expected.size()) + " logged");
      }
    });
  }
  std::thread writer([&] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 20; ++i) {
      AnnotationBuilder b;
      b.Title("warm " + std::to_string(i)).MarkInterval("chrW", i, i + 1);
      auto id = g.Commit(b);
      if (!id.ok()) failures.Add("commit failed: " + id.status().ToString());
    }
  });
  go.store(true);
  for (std::thread& t : readers) t.join();
  writer.join();
  for (const std::string& message : failures.Take()) ADD_FAILURE() << message;
  EXPECT_EQ(g.Stats().num_annotations, kSnapshot + kTail + 20);
  EXPECT_TRUE(g.ValidateIntegrity().ok());
  opened->reset();
  fs::remove_all(dir, ec);
}

// Two engine versions share each annotation's content object. Threads on
// both versions ask for the same not-yet-parsed DOMs at once: the content
// is parsed once, and every thread gets that one DOM.
TEST(ConcurrencyStressTest, VersionsShareOneParseOfEachContent) {
  constexpr size_t kDocs = 64;
  constexpr int kThreadsPerVersion = 3;
  Graphitti g;
  std::vector<AnnotationId> ids;
  for (size_t i = 0; i < kDocs; ++i) {
    AnnotationBuilder b;
    b.Title("shared " + std::to_string(i)).Body("unparsed until read");
    b.MarkInterval("chrS", static_cast<int64_t>(i) * 10, static_cast<int64_t>(i) * 10 + 5);
    auto id = g.Commit(b);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // Keyword answers come from the postings, so neither pin parses content.
  const char* kQuery = "FIND CONTENTS WHERE { ?a CONTAINS \"unparsed\" }";
  auto older = g.Query(kQuery);
  ASSERT_TRUE(older.ok());
  AnnotationBuilder extra;
  extra.Title("next version").MarkInterval("chrS", 0, 1);
  ASSERT_TRUE(g.Commit(extra).ok());
  auto newer = g.Query(kQuery);
  ASSERT_TRUE(newer.ok());
  auto store_of = [](const query::QueryResult& r) {
    return static_cast<const Graphitti::EngineState*>(r.snapshot.get())->store.get();
  };
  const annotation::AnnotationStore* stores[2] = {store_of(*older), store_of(*newer)};
  ASSERT_NE(stores[0], stores[1]);

  struct Seen {
    const xml::XmlDocument* dom = nullptr;
    std::string text;
  };
  std::vector<std::vector<Seen>> seen(2 * kThreadsPerVersion, std::vector<Seen>(kDocs));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2 * kThreadsPerVersion; ++t) {
    threads.emplace_back([&, t] {
      const annotation::AnnotationStore& store = *stores[t % 2];
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < kDocs; ++i) {
        const xml::XmlDocument& dom = store.ContentOf(*store.Get(ids[i]));
        seen[static_cast<size_t>(t)][i] = {&dom, dom.ToString(false)};
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < kDocs; ++i) {
    const std::string& logged = stores[0]->ContentXml(*stores[0]->Get(ids[i]));
    EXPECT_EQ(stores[1]->ContentXml(*stores[1]->Get(ids[i])), logged);
    for (const std::vector<Seen>& per_thread : seen) {
      EXPECT_EQ(per_thread[i].dom, seen[0][i].dom) << "annotation " << ids[i];
      EXPECT_EQ(per_thread[i].text, logged) << "annotation " << ids[i];
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace graphitti
