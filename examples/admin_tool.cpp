// The administration workflow (the demo's third tab): statistics, integrity
// validation, a-graph analytics, query EXPLAIN plans, and save/load of the
// whole engine state. Exits non-zero when the save/load round trip fails,
// changes the statistics, or reloads an engine that fails its integrity
// check.
//
//   $ ./build/admin_tool [save-directory]
#include <cstdio>
#include <filesystem>

#include "core/graphitti.h"
#include "core/workload.h"
#include "query/executor.h"

using graphitti::core::Graphitti;

int main(int argc, char** argv) {
  std::string save_dir = argc > 1 ? argv[1] : "/tmp/graphitti_admin_demo";

  Graphitti g;
  graphitti::core::InfluenzaParams params;
  params.num_annotations = 250;
  auto corpus = graphitti::core::GenerateInfluenzaStudy(&g, params);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }

  // --- statistics ---
  std::printf("== system statistics ==\n%s\n\n", g.Stats().ToString().c_str());

  // --- a-graph analytics ---
  auto components = g.graph().ConnectedComponents();
  auto degrees = g.graph().Degrees();
  auto kinds = g.graph().CountByKind();
  std::printf("== a-graph analytics ==\n");
  std::printf("connected components: %zu (largest: %zu nodes)\n", components.size(),
              components.empty() ? 0 : std::max_element(components.begin(), components.end(),
                                                        [](const auto& a, const auto& b) {
                                                          return a.size() < b.size();
                                                        })->size());
  std::printf("degree: min %zu / mean %.2f / max %zu\n", degrees.min, degrees.mean,
              degrees.max);
  std::printf("nodes by kind: content=%zu referent=%zu term=%zu object=%zu\n\n",
              kinds[graphitti::agraph::NodeKind::kContent],
              kinds[graphitti::agraph::NodeKind::kReferent],
              kinds[graphitti::agraph::NodeKind::kOntologyTerm],
              kinds[graphitti::agraph::NodeKind::kDataObject]);

  // --- integrity ---
  auto integrity = g.ValidateIntegrity();
  std::printf("== integrity check ==\n%s\n\n", integrity.ToString().c_str());

  // --- EXPLAIN a query plan ---
  graphitti::query::QueryContext ctx;
  ctx.store = &g.annotations();
  ctx.indexes = &g.indexes();
  ctx.graph = &g.graph();
  ctx.objects = &g;
  ctx.ontologies = &g;
  graphitti::query::Executor executor(ctx);
  auto plan = executor.ExplainText(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protease\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s ; ?s DOMAIN \"flu:seg1\" }");
  if (plan.ok()) {
    std::printf("== EXPLAIN ==\n%s\n", plan->c_str());
  }

  // --- count queries for quick dashboards ---
  auto count = g.Query("FIND COUNT ?a WHERE { ?a CONTAINS \"protease\" }");
  if (count.ok() && !count->items.empty()) {
    std::printf("dashboard: %s\n\n", count->LabelOf(count->items[0]).c_str());
  }

  // --- persistence round trip ---
  std::printf("== persistence ==\n");
  const std::string saved_stats = g.Stats().ToString();
  auto saved = g.SaveTo(save_dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s\n", save_dir.c_str());
  auto loaded = Graphitti::LoadFrom(save_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const std::string reloaded_stats = (*loaded)->Stats().ToString();
  auto reloaded_integrity = (*loaded)->ValidateIntegrity();
  std::printf("reloaded: %s\n", reloaded_stats.c_str());
  std::printf("reloaded integrity: %s\n", reloaded_integrity.ToString().c_str());
  if (reloaded_stats != saved_stats || !reloaded_integrity.ok()) {
    std::fprintf(stderr, "round trip mismatch: saved %s\n", saved_stats.c_str());
    return 1;
  }

  // --- removals ---
  for (size_t i = 0; i < 20; ++i) {
    (void)g.RemoveAnnotation(corpus->annotations[i]);
  }
  std::printf("\nafter removing 20 annotations: %s\n", g.Stats().ToString().c_str());
  std::printf("integrity after removals: %s\n", g.ValidateIntegrity().ToString().c_str());

  std::error_code ec;
  std::filesystem::remove_all(save_dir, ec);
  return 0;
}
