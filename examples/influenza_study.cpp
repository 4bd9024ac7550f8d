// The virology scenario (Figures 1 & 2): an interdisciplinary Avian
// Influenza study over heterogeneous objects — DNA segments, a phylogeny,
// an interaction graph, an ontology — annotated and queried through one
// a-graph.
//
//   $ ./build/examples/influenza_study
#include <cstdio>

#include "core/graphitti.h"
#include "core/workload.h"

using graphitti::agraph::NodeRef;
using graphitti::annotation::AnnotationBuilder;
using graphitti::core::Graphitti;
using graphitti::relational::Predicate;
using graphitti::relational::Value;

int main() {
  Graphitti g;

  // --- Build the study corpus (synthetic stand-in for the real Avian
  // Influenza data; see DESIGN.md §2 for the substitution rationale).
  graphitti::core::InfluenzaParams params;
  params.num_annotations = 400;
  params.protease_fraction = 0.2;
  auto corpus = graphitti::core::GenerateInfluenzaStudy(&g, params);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  std::printf("study corpus: %s\n\n", g.Stats().ToString().c_str());

  // --- The Figure 2 annotation-tab flow, step by step.
  std::printf("== annotation tab (Fig. 2) ==\n");
  // Search window: type-specific form query for H5N1 sequences.
  auto h5n1 =
      g.SearchObjects("dna_sequences", Predicate::Eq("organism", Value::Str("H5N1")));
  std::printf("search window: %zu H5N1 sequences\n", h5n1->size());

  // Mark two subintervals of the first hit and insert an ontology term.
  uint64_t target = (*h5n1)[0];
  const auto* info = g.GetObject(target);
  std::string domain =
      g.catalog().GetTable(info->table)->GetCell(info->row, "segment").as_string();
  AnnotationBuilder b;
  b.Title("HA cleavage-site comparison")
      .Creator("sandeep")
      .Subject("protein.HA")
      .Body("Polybasic protease cleavage site; virulence differs across strains.")
      .MarkIntervals(domain, {{1012, 1034}, {1102, 1120}}, target)
      .OntologyReference("flu", "FLU:1");
  std::printf("XML preview before commit:\n%s", b.BuildContentXml()->ToString().c_str());
  auto ann = g.Commit(b);
  if (!ann.ok()) {
    std::fprintf(stderr, "commit failed: %s\n", ann.status().ToString().c_str());
    return 1;
  }
  std::printf("committed annotation %llu\n\n", static_cast<unsigned long long>(*ann));

  // --- Figure 1: indirect relatedness through shared referents.
  std::printf("== a-graph exploration (Fig. 1) ==\n");
  size_t with_relations = 0;
  size_t max_related = 0;
  for (auto id : corpus->annotations) {
    size_t n = g.graph().IndirectlyRelatedContents(NodeRef::Content(id)).size();
    if (n > 0) ++with_relations;
    max_related = std::max(max_related, n);
  }
  std::printf("annotations with indirect relations: %zu / %zu (max degree %zu)\n",
              with_relations, corpus->annotations.size(), max_related);

  // path(): how two arbitrary annotations connect through the a-graph.
  auto path = g.graph().FindPath(NodeRef::Content(corpus->annotations[0]),
                                 NodeRef::Content(corpus->annotations[1]));
  if (path.ok()) {
    std::printf("path between annotations 1 and 2: %zu hops (", path->hops());
    for (size_t i = 0; i < path->nodes.size(); ++i) {
      std::printf("%s%s", i ? " -> " : "", path->nodes[i].ToString().c_str());
    }
    std::printf(")\n");
  }

  // connect(): one connection subgraph spanning an annotation, a sequence
  // object and the phylogeny object.
  auto sg = g.graph().Connect({NodeRef::Content(corpus->annotations[0]),
                               NodeRef::Object(corpus->sequence_objects[0]),
                               NodeRef::Object(corpus->phylo_object)});
  if (sg.ok()) {
    std::printf("connect() subgraph: %zu nodes, %zu edges\n\n", sg->nodes.size(),
                sg->edges.size());
  } else {
    std::printf("connect(): %s\n\n", sg.status().ToString().c_str());
  }

  // --- Queries over data + annotations.
  std::printf("== query tab ==\n");
  auto keyword = g.Query("FIND CONTENTS WHERE { ?a CONTAINS \"protease\" } LIMIT 5 PAGE 1");
  std::printf("protease annotations: %zu total, page 1 of %zu:\n",
              keyword->items.size(), keyword->total_pages);
  for (const auto& item : keyword->Page()) {
    std::printf("  [%llu] %s\n", static_cast<unsigned long long>(item.content_id),
                keyword->LabelOf(item).c_str());
  }

  auto spatial = g.Query(
      "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"flu:seg0\" ; "
      "?s OVERLAPS [0, 600] } LIMIT 5");
  std::printf("marked substructures on seg0 overlapping [0,600]: %zu, e.g.:\n",
              spatial->items.size());
  for (const auto& item : spatial->Page()) {
    std::printf("  %s\n", spatial->SubstructureOf(item)->ToString().c_str());
  }

  // XQuery over the annotation collection (the XML side of the store).
  auto xq = g.annotations().XQuerySearch(
      "for $a in collection()/annotation where contains($a/body, 'virulence') "
      "return $a/dc:title");
  std::printf("XQuery (virulence in body): %zu matches\n", xq->size());

  // Correlated-data viewing from the first protease hit.
  if (!keyword->items.empty()) {
    auto corr = g.Correlated(NodeRef::Content(keyword->items[0].content_id));
    std::printf(
        "correlated data around annotation %llu: %zu annotations, %zu referents, "
        "%zu objects, %zu terms\n",
        static_cast<unsigned long long>(keyword->items[0].content_id),
        corr.annotations.size(), corr.referents.size(), corr.objects.size(),
        corr.terms.size());
  }

  std::printf("\nfinal stats: %s\n", g.Stats().ToString().c_str());
  return 0;
}
