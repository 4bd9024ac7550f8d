// Concurrent query throughput: the multi-core numbers in the BENCH
// trajectory. Measures fig-3-style read throughput at 1/2/4/8 reader
// threads against one shared engine, (a) read-only and (b) while one
// writer thread continuously commits and removes annotations. Readers pin
// an engine version for the duration of each query (epoch-pinned
// copy-on-write publication); writers build the next version off to the
// side and publish it with a pointer swing, so neither side ever blocks
// the other.
//
// The read-only series is the scaling baseline: the per-thread traversal
// scratch and connect pools make const-graph queries embarrassingly
// parallel, so throughput should scale near-linearly until memory
// bandwidth. The with-writer series shows what a sustained annotation
// stream costs the query tab; its per-iteration p99 latency counter
// (p99_us, averaged across reader threads) against the read-only p99 is
// the churn tail-latency picture — under epoch pinning the two should be
// within a small constant of each other, where a reader-writer gate would
// let each commit stall every in-flight reader. The writer-only series
// time the writer alone: recycling the standby version, and (ClonePath)
// cloning and destroying a whole version per mutation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "core/graphitti.h"
#include "core/workload.h"

namespace {

using graphitti::annotation::AnnotationBuilder;
using graphitti::core::GenerateInfluenzaStudy;
using graphitti::core::Graphitti;
using graphitti::core::InfluenzaParams;
using graphitti::util::Rng;

// One shared engine for every benchmark in this binary (threads hammer the
// same instance — that is the point). Magic-static init is thread-safe.
Graphitti& SharedInstance() {
  static Graphitti* engine = [] {
    auto* g = new Graphitti();
    InfluenzaParams params;
    params.num_annotations = 2000;
    params.protease_fraction = 0.15;
    if (!GenerateInfluenzaStudy(g, params).ok()) std::abort();
    return g;
  }();
  return *engine;
}

// One reader iteration: a keyword CONTENTS query plus a spatial REFERENTS
// window — the query-formulation panel's two common conditions.
size_t RunReaderQueries(Graphitti& g, Rng* rng) {
  size_t items = 0;
  auto contents = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" }");
  if (contents.ok()) items += contents->items.size();
  int64_t lo = rng->Uniform(0, 1500);
  auto referents = g.Query(
      "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"flu:seg" +
      std::to_string(rng->Uniform(0, 7)) + "\" ; ?s OVERLAPS [" + std::to_string(lo) +
      ", " + std::to_string(lo + 300) + "] }");
  if (referents.ok()) items += referents->items.size();
  return items;
}

// Per-iteration latency tail. Each reader thread records every iteration's
// wall time and reports its own p99; the counter averages across threads
// (kAvgThreads), giving the mean per-thread p99 for the run.
double P99Micros(std::vector<double>& lat_us) {
  if (lat_us.empty()) return 0.0;
  size_t idx = std::min(lat_us.size() - 1, (lat_us.size() * 99) / 100);
  std::nth_element(lat_us.begin(), lat_us.begin() + static_cast<ptrdiff_t>(idx),
                   lat_us.end());
  return lat_us[idx];
}

// One writer iteration: commit an annotation marking two fresh intervals in
// a writer-private domain, then remove it — both sides of the exclusive
// gate, with the corpus size held steady.
void RunWriterCycle(Graphitti& g, uint64_t cycle) {
  int64_t base = static_cast<int64_t>((cycle % 100000) * 16);
  AnnotationBuilder b;
  b.Title("writer-churn " + std::to_string(cycle))
      .Creator("bench-writer")
      .Body("transient churn annotation")
      .MarkInterval("bench:churn", base, base + 5)
      .MarkInterval("bench:churn", base + 6, base + 11);
  auto id = g.Commit(b);
  if (id.ok()) (void)g.RemoveAnnotation(*id);
}

// Read-only scaling: every thread is a reader.
void BM_ConcurrentQuery_ReadOnly(benchmark::State& state) {
  Graphitti& g = SharedInstance();
  Rng rng(1000 + static_cast<uint64_t>(state.thread_index()));
  size_t items = 0;
  std::vector<double> lat_us;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    items += RunReaderQueries(g, &rng);
    lat_us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  benchmark::DoNotOptimize(items);
  state.SetItemsProcessed(state.iterations() * 2);  // two queries per iter
  state.counters["reader_threads"] =
      benchmark::Counter(static_cast<double>(state.threads()), benchmark::Counter::kAvgThreads);
  state.counters["p99_us"] =
      benchmark::Counter(P99Micros(lat_us), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ConcurrentQuery_ReadOnly)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Readers with one concurrent writer. Every benchmark thread is a reader;
// a dedicated background std::thread churns commit/remove cycles for the
// whole measurement window (benchmark threads start together, so the
// writer covers the readers' timed region), making WithWriter/threads:N
// directly comparable to ReadOnly/threads:N.
void BM_ConcurrentQuery_WithWriter(benchmark::State& state) {
  Graphitti& g = SharedInstance();
  static std::atomic<int> active_readers{0};
  static std::atomic<bool> stop_writer{false};
  static std::unique_ptr<std::thread> writer;
  // Pre-loop code on every thread finishes before any thread starts
  // iterating (benchmark threads synchronize on a start barrier at the
  // top of the state loop), so the reader count and the writer are in
  // place before the first timed iteration.
  active_readers.fetch_add(1, std::memory_order_acq_rel);
  if (state.thread_index() == 0) {
    stop_writer.store(false, std::memory_order_release);
    writer = std::make_unique<std::thread>([&g] {
      uint64_t cycle = uint64_t{1} << 32;
      while (!stop_writer.load(std::memory_order_acquire)) {
        RunWriterCycle(g, cycle++);
      }
    });
  }
  Rng rng(2000 + static_cast<uint64_t>(state.thread_index()));
  size_t items = 0;
  std::vector<double> lat_us;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    items += RunReaderQueries(g, &rng);
    lat_us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
  }
  benchmark::DoNotOptimize(items);
  // The writer must churn until the LAST reader finishes its timed loop,
  // not just thread 0 — otherwise the tail of the other readers'
  // measurement would run writer-free and overstate their throughput.
  active_readers.fetch_sub(1, std::memory_order_acq_rel);
  if (state.thread_index() == 0) {
    while (active_readers.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    stop_writer.store(true, std::memory_order_release);
    writer->join();
    writer.reset();
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two queries per iter
  state.counters["reader_threads"] =
      benchmark::Counter(static_cast<double>(state.threads()), benchmark::Counter::kAvgThreads);
  state.counters["p99_us"] =
      benchmark::Counter(P99Micros(lat_us), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ConcurrentQuery_WithWriter)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Writer-only baseline: the exclusive side with no reader contention, for
// reading the with-writer numbers (how much commit/remove throughput the
// churn thread is even capable of).
void BM_ConcurrentQuery_WriterOnly(benchmark::State& state) {
  Graphitti& g = SharedInstance();
  uint64_t cycle = uint64_t{1} << 48;
  for (auto _ : state) {
    RunWriterCycle(g, cycle++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentQuery_WriterOnly)->Unit(benchmark::kMicrosecond);

// The clone path: the writer-only cycle, but after the commit and after the
// remove the writer reads the change back and keeps its last two results,
// as e2ebench's churn writer does. The version each mutation would recycle
// is then still pinned, so every commit and remove clones the current
// version, and each result the writer drops destroys a version.
void BM_ConcurrentQuery_WriterClonePath(benchmark::State& state) {
  Graphitti& g = SharedInstance();
  uint64_t cycle = uint64_t{3} << 48;
  std::deque<graphitti::query::QueryResult> views;
  auto read_back = [&] {
    auto r = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"transient\" }");
    if (!r.ok()) std::abort();
    views.push_back(std::move(r).ValueUnsafe());
    if (views.size() > 2) views.pop_front();
  };
  read_back();
  for (auto _ : state) {
    const int64_t base = static_cast<int64_t>((cycle++ % 100000) * 16);
    AnnotationBuilder b;
    b.Title("clone-path churn").Body("transient churn annotation").MarkInterval(
        "bench:clone", base, base + 5);
    auto id = g.Commit(b);
    if (!id.ok()) std::abort();
    read_back();
    if (!g.RemoveAnnotation(*id).ok()) std::abort();
    read_back();
  }
  views.clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentQuery_WriterClonePath)->Unit(benchmark::kMicrosecond);

}  // namespace
