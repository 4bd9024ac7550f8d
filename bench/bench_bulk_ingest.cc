// BULK: corpus-scale ingest. A loop of per-annotation Commit versus one
// CommitBatch at 1k/10k/50k annotations — the batch packs the interval
// trees / R-trees via the median / STR bulk builds instead of replaying one
// tree insert and one posting append per referent.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/graphitti.h"
#include "util/random.h"

namespace {

using graphitti::annotation::AnnotationBuilder;
using graphitti::core::Graphitti;
using graphitti::spatial::Rect;
using graphitti::util::Rng;

constexpr int kNumSegments = 8;
constexpr int kNumChromosomes = 4;

std::unique_ptr<Graphitti> FreshEngine() {
  auto g = std::make_unique<Graphitti>();
  (void)g->RegisterCoordinateSystem("atlas", 2);
  (void)g->RegisterDerivedCoordinateSystem("stack50um", "atlas", {2.0, 2.0, 1.0},
                                           {10.0, 20.0, 0.0});
  return g;
}

// A mixed corpus: every annotation marks one interval, a third mark a second
// interval on another 1D domain, a fifth mark an image region (half through
// a derived coordinate system), with a skewed keyword vocabulary — the same
// shape per-commit and batched ingest must agree on.
std::vector<AnnotationBuilder> MakeCorpus(size_t n) {
  Rng rng(29);
  std::vector<AnnotationBuilder> builders;
  builders.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    AnnotationBuilder b;
    std::string body = "alpha";
    if (i % 4 == 0) body += " beta";
    if (i % 32 == 0) body += " gamma observed near the mark";
    body += " w" + std::to_string(rng.Next64() % (n / 4 + 1));
    b.Title("bulk" + std::to_string(i)).Creator("ingest-bot").Body(body);
    int64_t lo = static_cast<int64_t>(rng.Next64() % 1000000);
    b.MarkInterval("flu:seg" + std::to_string(i % kNumSegments), lo, lo + 120);
    if (i % 3 == 0) {
      int64_t lo2 = static_cast<int64_t>(rng.Next64() % 500000);
      b.MarkInterval("mouse:chr" + std::to_string(i % kNumChromosomes), lo2, lo2 + 80);
    }
    if (i % 5 == 0) {
      double x = static_cast<double>(rng.Next64() % 4096);
      double y = static_cast<double>(rng.Next64() % 4096);
      b.MarkRegion(i % 2 ? "stack50um" : "atlas", Rect::Make2D(x, y, x + 8, y + 8));
    }
    if (i % 7 == 0) b.UserTag("grade", i % 2 ? "high" : "low");
    builders.push_back(std::move(b));
  }
  return builders;
}

void BM_BulkIngest_PerCommit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<AnnotationBuilder> corpus = MakeCorpus(n);
  size_t committed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto g = FreshEngine();
    state.ResumeTiming();
    for (const AnnotationBuilder& b : corpus) {
      committed += g->Commit(b).ok() ? 1 : 0;
    }
    state.PauseTiming();
    g.reset();  // engine teardown is not ingest cost
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["annotations"] = static_cast<double>(n);
}
BENCHMARK(BM_BulkIngest_PerCommit)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_BulkIngest_CommitBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<AnnotationBuilder> corpus = MakeCorpus(n);
  size_t committed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto g = FreshEngine();
    state.ResumeTiming();
    auto ids = g->CommitBatch(corpus);
    if (!ids.ok()) std::abort();
    committed += ids->size();
    state.PauseTiming();
    g.reset();  // engine teardown is not ingest cost
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["annotations"] = static_cast<double>(n);
}
BENCHMARK(BM_BulkIngest_CommitBatch)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
