// The annotation model: an annotation is a *linker object* connecting an
// annotation content (XML) to one or more annotation referents (marked
// substructures) and ontology terms (§I).
#ifndef GRAPHITTI_ANNOTATION_ANNOTATION_H_
#define GRAPHITTI_ANNOTATION_ANNOTATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "annotation/dublin_core.h"
#include "substructure/substructure.h"
#include "util/result.h"
#include "xml/xml_node.h"

namespace graphitti {
namespace annotation {

using AnnotationId = uint64_t;
using ReferentId = uint64_t;

/// A referent: one marked substructure, possibly shared by several
/// annotations (sharing is what induces indirect relatedness in the a-graph).
struct Referent {
  ReferentId id = 0;
  substructure::Substructure substructure;
  /// The data object the mark was made on (0 = not tied to a catalogued
  /// object). Used for the a-graph's object nodes.
  uint64_t object_id = 0;
  /// Number of committed annotations referencing this referent.
  size_t refcount = 0;
};

/// A reference from an annotation to an ontology term (by qualified name,
/// "ontology-name:term-id"; annotations "only point to ontology nodes").
struct OntologyRef {
  std::string ontology;
  std::string term;

  std::string Qualified() const { return ontology + ":" + term; }
  bool operator==(const OntologyRef& other) const {
    return ontology == other.ontology && term == other.term;
  }
};

/// An annotation's stored content: the serialized XML (the
/// BuildContentXml(id).ToString(false) bytes) and a DOM parsed from them at
/// most once, on the first dom() call. Immutable once built, so every
/// engine version that holds the annotation shares one object: a version
/// clone copies the pointer, and a DOM one version parses serves them all.
class Content {
 public:
  explicit Content(std::string xml) : xml_(std::move(xml)) {}
  Content(const Content&) = delete;
  Content& operator=(const Content&) = delete;

  /// The serialized bytes, byte-exact across snapshot and WAL round trips.
  const std::string& xml() const { return xml_; }

  /// The DOM, parsed on the first call. Safe from any number of threads;
  /// lock-free once parsed. Bytes that fail to parse (unreachable for
  /// bytes the engine serialized and checksummed) give an empty document.
  const xml::XmlDocument& dom() const;

 private:
  const std::string xml_;
  mutable std::once_flag parsed_;
  mutable xml::XmlDocument dom_;  // written once, under parsed_
};

using ContentPtr = std::shared_ptr<const Content>;

/// A committed annotation.
struct Annotation {
  AnnotationId id = 0;
  DublinCore dc;
  std::string body;  // free-text comment
  std::vector<std::pair<std::string, std::string>> user_tags;
  std::vector<ReferentId> referents;
  std::vector<OntologyRef> ontology_refs;
  /// The stored XML, shared with every version that holds this annotation.
  /// Set by every store path that adds an annotation.
  ContentPtr content;
};

/// Fluent builder reproducing the annotation-tab flow (Fig. 2): fill Dublin
/// Core fields, write the comment body, drag referents in via the marker
/// methods, insert ontology references, preview the XML, then commit via
/// AnnotationStore::Commit.
class AnnotationBuilder {
 public:
  AnnotationBuilder() = default;

  AnnotationBuilder& Title(std::string v);
  AnnotationBuilder& Creator(std::string v);
  AnnotationBuilder& Subject(std::string v);
  AnnotationBuilder& Description(std::string v);
  AnnotationBuilder& Date(std::string v);
  AnnotationBuilder& Source(std::string v);
  AnnotationBuilder& DublinCoreFields(DublinCore dc);

  /// Free-text comment (the <body> element).
  AnnotationBuilder& Body(std::string text);

  /// User-defined tag, serialized as <user:NAME>value</user:NAME>.
  AnnotationBuilder& UserTag(std::string name, std::string value);

  // --- Markers (the central panel's marker menus) ---
  /// Linear interval marker on a 1D domain (sequence/chromosome/MSA columns).
  AnnotationBuilder& MarkInterval(std::string domain, int64_t lo, int64_t hi,
                                  uint64_t object_id = 0);
  /// Multiple subintervals referred to by this single annotation.
  AnnotationBuilder& MarkIntervals(std::string domain,
                                   const std::vector<spatial::Interval>& intervals,
                                   uint64_t object_id = 0);
  /// Region marker (2D/3D) in a registered coordinate system.
  AnnotationBuilder& MarkRegion(std::string coordinate_system, const spatial::Rect& rect,
                                uint64_t object_id = 0);
  /// Block-set marker for relational records.
  AnnotationBuilder& MarkBlockSet(std::string table, std::vector<uint64_t> row_ids,
                                  uint64_t object_id = 0);
  /// Node-set marker for interaction graphs.
  AnnotationBuilder& MarkNodeSet(std::string graph_id, std::vector<uint64_t> node_ids,
                                 uint64_t object_id = 0);
  /// Clade marker for phylogenetic trees.
  AnnotationBuilder& MarkClade(std::string tree_id, std::vector<uint64_t> leaf_ids,
                               uint64_t object_id = 0);
  /// Pre-built substructure.
  AnnotationBuilder& Mark(substructure::Substructure sub, uint64_t object_id = 0);

  /// Ontology reference ("the user browses the ontology ... selects a node,
  /// and then chooses 'insert'").
  AnnotationBuilder& OntologyReference(std::string ontology, std::string term);

  // --- Introspection before commit ---
  const DublinCore& dc() const { return dc_; }
  const std::string& body() const { return body_; }
  const std::vector<std::pair<substructure::Substructure, uint64_t>>& marks() const {
    return marks_;
  }
  const std::vector<OntologyRef>& ontology_refs() const { return ontology_refs_; }
  const std::vector<std::pair<std::string, std::string>>& user_tags() const {
    return user_tags_;
  }

  /// "The user may view [the annotation] as an XML-structured object (and
  /// edit it if needed) before it is committed": the preview document.
  /// Referent-ref elements carry machine-readable location attributes, so
  /// the stored XML is self-describing (see FromContentXml).
  /// InvalidArgument when a marked substructure is invalid.
  util::Result<xml::XmlDocument> BuildContentXml(AnnotationId id = 0) const;

  /// Inverse of BuildContentXml: reconstructs a builder (dc fields, body,
  /// user tags, ontology refs, marks) from a stored annotation document —
  /// XML as interchange, for edit-then-recommit workflows. Recovery does
  /// not use it: the snapshot and the WAL carry the fields in binary.
  static util::Result<AnnotationBuilder> FromContentXml(const xml::XmlNode* root);

 private:
  // The store's consuming CommitBatch moves metadata out of builders it
  // owns instead of copying (the persistence-reload fast path).
  friend class AnnotationStore;

  DublinCore dc_;
  std::string body_;
  std::vector<std::pair<std::string, std::string>> user_tags_;
  std::vector<std::pair<substructure::Substructure, uint64_t>> marks_;
  std::vector<OntologyRef> ontology_refs_;
};

}  // namespace annotation
}  // namespace graphitti

#endif  // GRAPHITTI_ANNOTATION_ANNOTATION_H_
