// RECOVERY: crash-safe restart cost. The headline number is cold-start
// time at 50k annotations — binary snapshot restore (OpenDurable), open
// alone and open plus first query — plus the WAL-tail replay and
// Checkpoint costs that bound recovery time between checkpoints, and the
// small-batch BulkLoad fallback cliff in the spatial index manager.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/graphitti.h"
#include "spatial/index_manager.h"
#include "util/random.h"

namespace {

namespace fs = std::filesystem;

using graphitti::annotation::AnnotationBuilder;
using graphitti::core::DurabilityOptions;
using graphitti::core::Graphitti;
using graphitti::spatial::Interval;
using graphitti::spatial::IntervalEntry;
using graphitti::spatial::Rect;
using graphitti::util::Rng;

// Same mixed shape as bench_bulk_ingest's corpus: intervals on several
// domains, some image regions, skewed keywords.
std::vector<AnnotationBuilder> MakeCorpus(size_t n) {
  Rng rng(31);
  std::vector<AnnotationBuilder> builders;
  builders.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AnnotationBuilder b;
    std::string body = "alpha";
    if (i % 4 == 0) body += " beta";
    if (i % 32 == 0) body += " gamma observed near the mark";
    body += " w" + std::to_string(rng.Next64() % (n / 4 + 1));
    b.Title("rec" + std::to_string(i)).Creator("recovery-bot").Body(body);
    int64_t lo = static_cast<int64_t>(rng.Next64() % 1000000);
    b.MarkInterval("flu:seg" + std::to_string(i % 8), lo, lo + 120);
    if (i % 5 == 0) {
      double x = static_cast<double>(rng.Next64() % 4096);
      double y = static_cast<double>(rng.Next64() % 4096);
      b.MarkRegion("atlas", Rect::Make2D(x, y, x + 8, y + 8));
    }
    builders.push_back(std::move(b));
  }
  return builders;
}

std::string BenchDir(const std::string& tag, size_t n) {
  return (fs::temp_directory_path() / ("graphitti_bench_recovery_" + tag + "_" +
                                       std::to_string(n)))
      .string();
}

// Durable directory checkpointed after the full corpus: recovery is a pure
// snapshot restore (the WAL holds only the header).
const std::string& SnapshotCorpusDir(size_t n) {
  static auto* dirs = new std::map<size_t, std::string>();
  auto it = dirs->find(n);
  if (it == dirs->end()) {
    std::string dir = BenchDir("snap", n);
    std::error_code ec;
    fs::remove_all(dir, ec);
    auto g = Graphitti::OpenDurable(dir);
    if (!g.ok()) std::abort();
    if (!(*g)->RegisterCoordinateSystem("atlas", 2).ok()) std::abort();
    if (!(*g)->CommitBatch(MakeCorpus(n)).ok()) std::abort();
    if (!(*g)->Checkpoint().ok()) std::abort();
    it = dirs->emplace(n, dir).first;
  }
  return it->second;
}

// Durable directory with a 10% post-checkpoint WAL tail: the realistic
// restart (snapshot restore + tail replay).
const std::string& SnapshotPlusTailDir(size_t n) {
  static auto* dirs = new std::map<size_t, std::string>();
  auto it = dirs->find(n);
  if (it == dirs->end()) {
    std::string dir = BenchDir("tail", n);
    std::error_code ec;
    fs::remove_all(dir, ec);
    auto g = Graphitti::OpenDurable(dir);
    if (!g.ok()) std::abort();
    if (!(*g)->RegisterCoordinateSystem("atlas", 2).ok()) std::abort();
    std::vector<AnnotationBuilder> corpus = MakeCorpus(n);
    size_t tail = n / 10;
    std::vector<AnnotationBuilder> head(corpus.begin(), corpus.end() - tail);
    std::vector<AnnotationBuilder> rest(corpus.end() - tail, corpus.end());
    if (!(*g)->CommitBatch(head).ok()) std::abort();
    if (!(*g)->Checkpoint().ok()) std::abort();
    if (!(*g)->CommitBatch(rest).ok()) std::abort();
    it = dirs->emplace(n, dir).first;
  }
  return it->second;
}

// Durable directory with a snapshot of `n` annotations plus a tail of n/10
// more, each its own Commit and so its own WAL record: the interactive
// annotate flow between checkpoints. Built with group commit only to keep
// set-up short; the records are the same under either sync policy.
const std::string& SingleCommitTailDir(size_t n) {
  static auto* dirs = new std::map<size_t, std::string>();
  auto it = dirs->find(n);
  if (it == dirs->end()) {
    std::string dir = BenchDir("single_tail", n);
    std::error_code ec;
    fs::remove_all(dir, ec);
    DurabilityOptions options;
    options.wal.sync_policy = graphitti::persist::WalOptions::SyncPolicy::kInterval;
    auto g = Graphitti::OpenDurable(dir, options);
    if (!g.ok()) std::abort();
    if (!(*g)->RegisterCoordinateSystem("atlas", 2).ok()) std::abort();
    std::vector<AnnotationBuilder> corpus = MakeCorpus(n + n / 10);
    std::vector<AnnotationBuilder> head(corpus.begin(), corpus.begin() + static_cast<long>(n));
    if (!(*g)->CommitBatch(head).ok()) std::abort();
    if (!(*g)->Checkpoint().ok()) std::abort();
    for (size_t i = n; i < corpus.size(); ++i) {
      if (!(*g)->Commit(corpus[i]).ok()) std::abort();
    }
    it = dirs->emplace(n, dir).first;
  }
  return it->second;
}

// Durable directory that was never checkpointed: recovery replays the whole
// WAL through the commit pipeline (the cost checkpoints exist to bound).
const std::string& WalOnlyCorpusDir(size_t n) {
  static auto* dirs = new std::map<size_t, std::string>();
  auto it = dirs->find(n);
  if (it == dirs->end()) {
    std::string dir = BenchDir("wal", n);
    std::error_code ec;
    fs::remove_all(dir, ec);
    auto g = Graphitti::OpenDurable(dir);
    if (!g.ok()) std::abort();
    if (!(*g)->RegisterCoordinateSystem("atlas", 2).ok()) std::abort();
    if (!(*g)->CommitBatch(MakeCorpus(n)).ok()) std::abort();
    it = dirs->emplace(n, dir).first;
  }
  return it->second;
}

// One OpenDurable plus the first query, which forces deferred hydration:
// the honest time to the first answer after a restart. The result pins the
// restored version, so the result and the engine are both dropped while
// the timer is paused; destroying that version is not part of the restart.
void TimeOpenAndFirstQuery(benchmark::State& state, const std::string& dir) {
  for (auto _ : state) {
    auto g = Graphitti::OpenDurable(dir);
    if (!g.ok()) std::abort();
    {
      auto r = (*g)->Query("FIND CONTENTS WHERE { ?a CONTAINS \"gamma\" }");
      if (!r.ok() || r->items.empty()) std::abort();
      benchmark::DoNotOptimize(*r);
      state.PauseTiming();
    }
    g->reset();
    state.ResumeTiming();
  }
}

// OpenDurable alone: the open is I/O-bound (read + CRC-verify the
// snapshot, settle the WAL); the state build is deferred to first access.
void BM_Recovery_SnapshotRestore(benchmark::State& state) {
  const std::string& dir = SnapshotCorpusDir(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto g = Graphitti::OpenDurable(dir);
    if (!g.ok()) std::abort();
    benchmark::DoNotOptimize(*g);
    state.PauseTiming();
    g->reset();
    state.ResumeTiming();
  }
  state.counters["annotations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Recovery_SnapshotRestore)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_Recovery_SnapshotRestoreFirstQuery(benchmark::State& state) {
  TimeOpenAndFirstQuery(state, SnapshotCorpusDir(static_cast<size_t>(state.range(0))));
  state.counters["annotations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Recovery_SnapshotRestoreFirstQuery)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_Recovery_SnapshotPlusWalTail(benchmark::State& state) {
  const std::string& dir = SnapshotPlusTailDir(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto g = Graphitti::OpenDurable(dir);
    if (!g.ok()) std::abort();
    benchmark::DoNotOptimize(*g);
    state.PauseTiming();
    g->reset();
    state.ResumeTiming();
  }
  state.counters["annotations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Recovery_SnapshotPlusWalTail)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_Recovery_SnapshotPlusWalTailFirstQuery(benchmark::State& state) {
  TimeOpenAndFirstQuery(state, SnapshotPlusTailDir(static_cast<size_t>(state.range(0))));
  state.counters["annotations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Recovery_SnapshotPlusWalTailFirstQuery)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Open + first query over a tail of one-annotation records: replay runs one
// CommitBatch per record, so any per-batch cost proportional to the engine
// (rather than to the batch) is paid n/10 times here.
void BM_Recovery_SingleCommitTailFirstQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  TimeOpenAndFirstQuery(state, SingleCommitTailDir(n));
  state.counters["annotations"] = static_cast<double>(n);
  state.counters["tail_records"] = static_cast<double>(n / 10);
}
BENCHMARK(BM_Recovery_SingleCommitTailFirstQuery)
    ->Arg(20000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Open plus the first query over a WAL with no snapshot: the first call
// replays the whole log through the commit pipeline, the cost checkpoints
// exist to bound.
void BM_Recovery_WalReplay(benchmark::State& state) {
  TimeOpenAndFirstQuery(state, WalOnlyCorpusDir(static_cast<size_t>(state.range(0))));
  state.counters["annotations"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Recovery_WalReplay)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_Recovery_Checkpoint(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::string dir = BenchDir("ckpt", n);
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto g = Graphitti::OpenDurable(dir);
  if (!g.ok()) std::abort();
  if (!(*g)->RegisterCoordinateSystem("atlas", 2).ok()) std::abort();
  if (!(*g)->CommitBatch(MakeCorpus(n)).ok()) std::abort();
  for (auto _ : state) {
    if (!(*g)->Checkpoint().ok()) std::abort();
  }
  state.counters["annotations"] = static_cast<double>(n);
}
BENCHMARK(BM_Recovery_Checkpoint)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

// The small-batch BulkLoad cliff: appending `batch` entries to a 100k-entry
// interval tree. Batches up to 1/16 of the tree (6250 entries) take
// per-entry inserts; 8192 is above the threshold and takes the
// drain-and-rebuild, so the series measures both sides.
void BM_SmallBatchBulkLoad_Fallback(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  constexpr size_t kBase = 100000;
  Rng rng(37);
  std::vector<IntervalEntry> base;
  base.reserve(kBase);
  for (size_t i = 0; i < kBase; ++i) {
    int64_t lo = static_cast<int64_t>(i) * 100;
    base.push_back({Interval(lo, lo + 50), i});
  }
  uint64_t next_id = kBase;
  for (auto _ : state) {
    state.PauseTiming();
    graphitti::spatial::IndexManager mgr;
    if (!mgr.BulkLoadIntervals("chr1", base).ok()) std::abort();
    std::vector<IntervalEntry> entries;
    entries.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      int64_t lo = static_cast<int64_t>(rng.Next64() % 10000000);
      entries.push_back({Interval(lo, lo + 10), next_id++});
    }
    state.ResumeTiming();
    if (!mgr.BulkLoadIntervals("chr1", std::move(entries)).ok()) std::abort();
  }
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_SmallBatchBulkLoad_Fallback)
    ->Arg(8)
    ->Arg(64)
    ->Arg(512)
    ->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
