// ABL-AG: the two a-graph primitives — path(n1,n2) and connect(n1,...,nk) —
// as the a-graph grows, plus sensitivity to referent sharing degree (shared
// referents shorten connection paths between annotations).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "agraph/agraph.h"
#include "util/random.h"

namespace {

using graphitti::agraph::AGraph;
using graphitti::agraph::NodeRef;
using graphitti::util::Rng;

// Builds an annotation-shaped a-graph: `n` contents, each annotating 3
// referents drawn from a pool of n * pool_factor referents (smaller pool =
// more sharing), plus per-content term references.
std::unique_ptr<AGraph> BuildAnnotationGraph(size_t n, double pool_factor, uint64_t seed) {
  auto g = std::make_unique<AGraph>();
  Rng rng(seed);
  size_t pool = std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * pool_factor));
  for (size_t r = 0; r < pool; ++r) {
    (void)g->AddNode(NodeRef::Referent(r));
  }
  size_t terms = std::max<size_t>(1, n / 10);
  for (size_t t = 0; t < terms; ++t) {
    (void)g->AddNode(NodeRef::Term(t));
  }
  for (size_t c = 0; c < n; ++c) {
    (void)g->AddNode(NodeRef::Content(c));
    for (int k = 0; k < 3; ++k) {
      (void)g->AddEdge(NodeRef::Content(c), NodeRef::Referent(rng.Next64() % pool),
                       "annotates");
    }
    (void)g->AddEdge(NodeRef::Content(c), NodeRef::Term(rng.Next64() % terms), "refers-to");
  }
  return g;
}

const AGraph& SharedGraph(size_t n, int sharing_pct) {
  static std::map<std::pair<size_t, int>, std::unique_ptr<AGraph>> cache;
  auto key = std::make_pair(n, sharing_pct);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, BuildAnnotationGraph(n, sharing_pct / 100.0, 42)).first;
  }
  return *it->second;
}

void BM_AGraphPath(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const AGraph& g = SharedGraph(n, 50);
  Rng rng(7);
  size_t found = 0;
  for (auto _ : state) {
    NodeRef a = NodeRef::Content(rng.Next64() % n);
    NodeRef b = NodeRef::Content(rng.Next64() % n);
    if (g.FindPath(a, b).ok()) ++found;
  }
  benchmark::DoNotOptimize(found);
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
  state.counters["edges"] = static_cast<double>(g.num_edges());
}
BENCHMARK(BM_AGraphPath)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_AGraphPathLabelFiltered(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const AGraph& g = SharedGraph(n, 50);
  Rng rng(7);
  graphitti::agraph::PathOptions opts;
  opts.allowed_labels = {"annotates"};
  size_t found = 0;
  for (auto _ : state) {
    NodeRef a = NodeRef::Content(rng.Next64() % n);
    NodeRef b = NodeRef::Content(rng.Next64() % n);
    if (g.FindPath(a, b, opts).ok()) ++found;
  }
  benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_AGraphPathLabelFiltered)->Arg(10000);

void BM_AGraphConnect(benchmark::State& state) {
  const size_t n = 20000;
  const size_t k = static_cast<size_t>(state.range(0));
  const AGraph& g = SharedGraph(n, 50);
  Rng rng(9);
  size_t nodes_out = 0;
  for (auto _ : state) {
    std::vector<NodeRef> terminals;
    for (size_t i = 0; i < k; ++i) {
      terminals.push_back(NodeRef::Content(rng.Next64() % n));
    }
    auto sg = g.Connect(terminals);
    if (sg.ok()) nodes_out += sg->nodes.size();
  }
  benchmark::DoNotOptimize(nodes_out);
  state.counters["terminals"] = static_cast<double>(k);
}
BENCHMARK(BM_AGraphConnect)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Referent sharing degree: smaller pools => denser sharing => shorter paths.
void BM_AGraphPathBySharing(benchmark::State& state) {
  const size_t n = 10000;
  const AGraph& g = SharedGraph(n, static_cast<int>(state.range(0)));
  Rng rng(7);
  size_t hops = 0;
  for (auto _ : state) {
    NodeRef a = NodeRef::Content(rng.Next64() % n);
    NodeRef b = NodeRef::Content(rng.Next64() % n);
    auto p = g.FindPath(a, b);
    if (p.ok()) hops += p->hops();
  }
  benchmark::DoNotOptimize(hops);
  state.counters["referent_pool_pct"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AGraphPathBySharing)->Arg(10)->Arg(50)->Arg(200);

void BM_AGraphIndirectlyRelated(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const AGraph& g = SharedGraph(n, 20);
  Rng rng(3);
  size_t total = 0;
  for (auto _ : state) {
    total += g.IndirectlyRelatedContents(NodeRef::Content(rng.Next64() % n)).size();
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_AGraphIndirectlyRelated)->Arg(1000)->Arg(10000);

void BM_AGraphSerialize(benchmark::State& state) {
  const AGraph& g = SharedGraph(static_cast<size_t>(state.range(0)), 50);
  size_t bytes = 0;
  for (auto _ : state) {
    // The bench graph's nodes carry no labels.
    std::string text = g.ToText([](NodeRef) { return std::string(); });
    bytes += text.size();
    benchmark::DoNotOptimize(text);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_AGraphSerialize)->Arg(10000);

}  // namespace
