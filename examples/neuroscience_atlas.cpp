// The neuroscience scenario (Figure 3 and the introduction's flagship
// query): mouse brain images registered to a shared atlas coordinate
// system, 3D region annotations carrying NIF ontology terms, and queries
// like "mouse brain images having at least 2 regions annotated with
// ontology term 'Deep Cerebellar nuclei'".
//
//   $ ./build/examples/neuroscience_atlas
#include <cstdio>
#include <map>

#include "core/graphitti.h"
#include "core/workload.h"

using graphitti::agraph::NodeRef;
using graphitti::annotation::AnnotationBuilder;
using graphitti::core::Graphitti;

int main() {
  Graphitti g;

  graphitti::core::BrainAtlasParams params;
  params.num_images = 30;
  params.num_annotations = 200;
  auto corpus = graphitti::core::GenerateBrainAtlas(&g, params);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }

  std::printf("brain atlas corpus: %s\n", g.Stats().ToString().c_str());
  std::printf("coordinate systems: ");
  for (const auto& s : corpus->all_systems) std::printf("%s ", s.c_str());
  std::printf("\n-> all regions share ONE canonical R-tree (%zu structure(s))\n\n",
              g.indexes().num_rtrees());

  // --- Region annotation in a derived (50um) coordinate system: the rect is
  // given in local pixels and lands in canonical atlas coordinates.
  AnnotationBuilder b;
  b.Title("DCN expression in stack 3")
      .Creator("neuro0")
      .Body("Strong protein.TP53 signal in Deep Cerebellar nuclei")
      .MarkRegion(corpus->all_systems[1],
                  graphitti::spatial::Rect::Make3D(100, 100, 10, 160, 160, 20),
                  corpus->image_objects[3])
      .OntologyReference(corpus->ontology_name, "NIF:1");
  auto ann = g.Commit(b);
  if (!ann.ok()) {
    std::fprintf(stderr, "commit failed: %s\n", ann.status().ToString().c_str());
    return 1;
  }
  std::printf("committed 50um-space region annotation %llu\n\n",
              static_cast<unsigned long long>(*ann));

  // --- Ontology exploration (OntoQuest operations).
  const auto* nif = g.GetOntology(corpus->ontology_name);
  auto is_a = nif->FindRelation("is_a");
  auto root = nif->FindTerm("NIF:0000");
  std::printf("NIF ontology: %zu terms; SubTree(brain region, is_a) = %zu terms\n",
              nif->num_terms(), nif->SubTree(root, is_a).size());

  // --- The intro query: annotations containing "protein.TP53" with paths to
  // images having >= 2 regions annotated "Deep Cerebellar nuclei" (NIF:1).
  auto tp53 = g.Query(
      "FIND CONTENTS WHERE { ?a CONTAINS \"protein.TP53\" ; ?t TERM \"" +
      corpus->ontology_name + ":NIF:1\" ; ?a REFERS ?t }");
  std::printf("\nannotations mentioning protein.TP53 with term NIF:1: %zu\n",
              tp53->items.size());

  // Count DCN-annotated regions per image via the a-graph, keep images with
  // at least two, and verify a-graph paths from the TP53 annotations.
  std::map<uint64_t, size_t> dcn_regions_per_image;
  for (const auto& item : tp53->items) {
    auto corr = g.Correlated(NodeRef::Content(item.content_id));
    for (uint64_t obj : corr.objects) ++dcn_regions_per_image[obj];
  }
  size_t qualifying = 0;
  for (const auto& [image, count] : dcn_regions_per_image) {
    if (count < 2) continue;
    ++qualifying;
    if (!tp53->items.empty()) {
      auto path = g.graph().FindPath(NodeRef::Content(tp53->items[0].content_id),
                                     NodeRef::Object(image));
      if (path.ok() && qualifying <= 3) {
        std::printf("  image %llu: %zu DCN regions, path from TP53 annotation: %zu hops\n",
                    static_cast<unsigned long long>(image), count, path->hops());
      }
    }
  }
  std::printf("images with >= 2 'Deep Cerebellar nuclei' regions: %zu\n\n", qualifying);

  // --- 3D spatial window query in canonical atlas coordinates.
  auto window = g.Query(
      "FIND REFERENTS WHERE { ?s TYPE region ; ?s DOMAIN \"" + corpus->canonical_system +
      "\" ; ?s OVERLAPS RECT [0,0,0, 3000,3000,3000] } LIMIT 5");
  std::printf("regions in the [0,3000]^3 atlas corner: %zu total, first page:\n",
              window->items.size());
  for (const auto& item : window->Page()) {
    std::printf("  %s\n", window->SubstructureOf(item)->ToString().c_str());
  }

  // --- TERM BELOW: subtree expansion over the NIF hierarchy.
  auto below = g.Query(
      "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM BELOW \"" + corpus->ontology_name +
      ":NIF:0000\" ; ?a REFERS ?t }");
  std::printf("\nannotations referring to any brain-region term: %zu\n",
              below->items.size());

  // --- GRAPH result pages ("each connected subgraph forms a result page").
  // Subgraphs are materialized lazily, one page at a time: page 1 comes
  // back from Query, further pages through MaterializePage.
  auto graphs = g.Query(
      "FIND GRAPH WHERE { ?a CONTAINS \"Deep Cerebellar\" ; ?s IS REFERENT ; "
      "?a ANNOTATES ?s } LIMIT 1 PAGE 1");
  std::printf("connection-subgraph result pages: %zu (showing page 1: %s)\n",
              graphs->total_pages,
              graphs->Page().empty() ? "-" : graphs->LabelOf(graphs->Page()[0]).c_str());
  if (graphs->total_pages > 1) {
    if (g.MaterializePage(&*graphs, 2).ok()) {
      std::printf("  flipped to page 2: %s (%zu subgraph(s) built so far)\n",
                  graphs->LabelOf(graphs->Page()[0]).c_str(),
                  graphs->stats.subgraphs_materialized);
    }
  }

  std::printf("\nfinal stats: %s\n", g.Stats().ToString().c_str());
  return 0;
}
