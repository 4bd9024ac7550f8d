// Quickstart: ingest a sequence, annotate a fragment, query it back.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/graphitti.h"

using graphitti::annotation::AnnotationBuilder;
using graphitti::core::Graphitti;

int main() {
  Graphitti g;

  // 1. Ingest a data object: a DNA sequence on genome segment "flu:seg4".
  //    Metadata lands in the type-specific `dna_sequences` table; the raw
  //    residues are stored in the same row.
  auto seq = g.IngestDnaSequence("AF144305", "H5N1", "flu:seg4",
                                 "ACGTACGTACGTACGTACGTACGTACGTACGT");
  if (!seq.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", seq.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested sequence as object %llu\n",
              static_cast<unsigned long long>(*seq));

  // 2. Annotate: mark bases [8, 19] with the linear interval marker and
  //    attach a comment. The annotation is a linker object: content XML on
  //    one side, the marked substructure (referent) on the other.
  AnnotationBuilder builder;
  builder.Title("Cleavage site")
      .Creator("quickstart-user")
      .Body("Putative protease cleavage site in the marked region.")
      .MarkInterval("flu:seg4", 8, 19, *seq);

  // Preview the XML content exactly as it will be stored.
  std::printf("\n--- annotation XML preview ---\n%s\n",
              builder.BuildContentXml()->ToString().c_str());

  auto ann = g.Commit(builder);
  if (!ann.ok()) {
    std::fprintf(stderr, "commit failed: %s\n", ann.status().ToString().c_str());
    return 1;
  }
  std::printf("committed annotation %llu\n", static_cast<unsigned long long>(*ann));

  // 3. Query: keyword search plus a spatial predicate on the interval tree.
  auto result = g.Query(R"(
      FIND CONTENTS WHERE {
        ?a CONTAINS "protease" ;
        ?s IS REFERENT ; ?s DOMAIN "flu:seg4" ; ?s OVERLAPS [0, 15] ;
        ?a ANNOTATES ?s ;
      })");
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nquery matched %zu annotation(s):\n", result->items.size());
  for (const auto& item : result->Page()) {
    std::printf("  annotation %llu: %s\n", static_cast<unsigned long long>(item.content_id),
                result->LabelOf(item).c_str());
  }

  // 4. Admin view.
  std::printf("\nsystem stats: %s\n", g.Stats().ToString().c_str());
  return 0;
}
