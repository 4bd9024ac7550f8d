// AnnotationStore: the commit pipeline and search surface over annotations.
//
// A commit wires the three §II structures together:
//   1. the content XML joins the document collection (searchable via
//      keyword index, XPath and XQuery),
//   2. each marked substructure becomes (or reuses) a Referent and is
//      inserted into the shared interval-tree/R-tree indexes,
//   3. content/referent/term/object nodes and labeled edges are added to
//      the a-graph.
//
// Thread-safety: the store performs no synchronization of its own. The
// owning core::Graphitti runs every commit and removal on an unpublished
// scratch version under its commit mutex, and serves reads from published
// versions that no writer mutates again (util/epoch.h). The store keeps
// that split clean by building ALL read-acceleration state eagerly at
// commit time — keyword postings, the per-annotation lowercase text that
// phrase search scans (lower_text_), the per-domain referent index — so
// no const search method ever writes. Content is immutable and shared
// across versions (annotation::Content); its one lazy step, the first DOM
// parse, synchronizes itself. The one non-const lookup, TermNode (creates
// the term node on first use), is only called from the commit path.
#ifndef GRAPHITTI_ANNOTATION_ANNOTATION_STORE_H_
#define GRAPHITTI_ANNOTATION_ANNOTATION_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "agraph/agraph.h"
#include "annotation/annotation.h"
#include "spatial/index_manager.h"
#include "util/string_interner.h"
#include "util/result.h"

namespace graphitti {
namespace annotation {

/// Edge labels the store writes into the a-graph.
inline constexpr std::string_view kEdgeAnnotates = "annotates";      // content -> referent
inline constexpr std::string_view kEdgeRefersTo = "refers-to";       // content -> term
inline constexpr std::string_view kEdgeOfObject = "of-object";       // referent -> object

class AnnotationStore {
 public:
  /// The store borrows the index manager and a-graph owned by the Graphitti
  /// instance; both must outlive it.
  AnnotationStore(spatial::IndexManager* indexes, agraph::AGraph* graph);

  AnnotationStore& operator=(const AnnotationStore&) = delete;

  /// Copy for copy-on-write version publication (util/epoch.h): the clone
  /// borrows `indexes`/`graph` (the *clone's* counterparts, not this
  /// store's). Annotations share their immutable content with this store,
  /// so the copy is safe while readers parse content on this store.
  std::unique_ptr<AnnotationStore> Clone(spatial::IndexManager* indexes,
                                         agraph::AGraph* graph) const;

  // --- Commit / remove ---

  /// Commits a built annotation: a batch of one through CommitBatch's
  /// pipeline. `forced_id` (non-zero) preserves a persisted id; it must not
  /// collide with an existing annotation.
  util::Result<AnnotationId> Commit(const AnnotationBuilder& builder,
                                    AnnotationId forced_id = 0);

  /// Commits `count` annotations starting at `builders`: assigns ids,
  /// serializes the content XML, indexes substructures (deduplicating
  /// identical marks into shared referents), and extends the a-graph. Every
  /// builder is validated up front (ValidateBatch) before any state
  /// changes, so a bad builder rejects the whole batch with the store
  /// untouched (all-or-nothing).
  /// Referent interning then stages spatial insertion into per-domain
  /// interval and per-canonical-system region accumulators that flush
  /// through IndexManager::BulkLoadIntervals / BulkLoadRegions (a fresh
  /// pack, a merge-rebuild, or per-entry inserts when the batch is at most
  /// 1/16 of the tree); keyword postings append in one pass (ids ascend,
  /// so appends are already sorted) with a sort + merge at flush for each
  /// list an out-of-order forced id left unsorted; a-graph node storage
  /// grows geometrically (AGraph::Reserve) and edges wire by dense index.
  /// Per-batch costs are proportional to the batch, not to the store.
  /// `forced_ids`, when non-empty, must have one entry per builder
  /// (0 = assign fresh) — the replay paths.
  ///
  /// `contents`, when non-empty, must have one entry per builder: that
  /// builder's content under its id, adopted as is instead of serialized
  /// again. The two replays pass it: WAL replay wraps the logged bytes,
  /// and the engine's op replay hands the standby version the objects the
  /// commit it repeats already built. Content that does not match the
  /// builder makes stored content and search text disagree.
  util::Result<std::vector<AnnotationId>> CommitBatch(
      const AnnotationBuilder* builders, size_t count,
      const std::vector<AnnotationId>& forced_ids = {},
      const std::vector<ContentPtr>& contents = {});

  /// Consuming overload: identical observable semantics, but each
  /// annotation's metadata (Dublin Core fields, body, user tags, ontology
  /// refs) is moved out of its builder instead of copied — for callers
  /// that discard the builders afterwards, like WAL replay.
  util::Result<std::vector<AnnotationId>> CommitBatch(
      std::vector<AnnotationBuilder>&& builders,
      const std::vector<AnnotationId>& forced_ids = {},
      const std::vector<ContentPtr>& contents = {});

  /// The ids CommitBatch would assign to `count` builders, or the error it
  /// would refuse them with: marks, user-tag names, coordinate systems
  /// (including rect-dims canonicalization), forced-id collisions against
  /// the store and within the batch. Changes nothing, so the engine checks
  /// a commit against the published version before it takes a scratch one.
  util::Result<std::vector<AnnotationId>> ValidateBatch(
      const AnnotationBuilder* builders, size_t count,
      const std::vector<AnnotationId>& forced_ids = {}) const;

  /// Removes an annotation; referents drop a refcount and disappear from
  /// spatial indexes and the a-graph when orphaned.
  util::Status Remove(AnnotationId id);

  // --- Lookup ---
  const Annotation* Get(AnnotationId id) const;
  const Referent* GetReferent(ReferentId id) const;
  size_t size() const { return annotations_.size(); }
  size_t num_referents() const { return referents_.size(); }

  /// All annotation ids, ascending.
  std::vector<AnnotationId> Ids() const;

  /// All referent ids, ascending.
  std::vector<ReferentId> ReferentIds() const;

  // --- Streaming enumeration (the query executor's candidate feeds) ---
  //
  // These visit store entries in ascending-id order without materializing an
  // id vector and with direct access to the entry, so a filtering consumer
  // pays no per-id lookup.

  /// Visits every annotation in ascending id order.
  void ForEachAnnotation(
      const std::function<void(AnnotationId, const Annotation&)>& fn) const;

  /// Visits every referent in ascending id order.
  void ForEachReferent(
      const std::function<void(ReferentId, const Referent&)>& fn) const;

  /// Visits the referents whose substructure domain equals `domain`, in
  /// ascending id order. Index-backed: O(|referents in domain|), not
  /// O(|all referents|) — the fast path for DOMAIN-filtered subqueries.
  void ForEachReferentInDomain(
      std::string_view domain,
      const std::function<void(ReferentId, const Referent&)>& fn) const;

  /// Annotations referencing the given referent.
  std::vector<AnnotationId> AnnotationsOfReferent(ReferentId id) const;

  /// Referent whose substructure equals `sub`, if any.
  util::Result<ReferentId> FindReferent(const substructure::Substructure& sub) const;

  // --- Content search ---

  /// Annotations whose content contains `word` (keyword inverted index;
  /// case-insensitive, alphanumeric tokenization).
  std::vector<AnnotationId> SearchKeyword(std::string_view word) const;

  /// Annotations containing all of `words`.
  std::vector<AnnotationId> SearchAllKeywords(const std::vector<std::string>& words) const;

  /// Substring search over serialized content, accelerated by the keyword
  /// index when the phrase tokenizes to at least one word.
  std::vector<AnnotationId> SearchPhrase(std::string_view phrase) const;

  /// The XML collection view for XQuery ("collection()"). Parses every
  /// document no version has parsed yet (see ContentOf).
  std::vector<const xml::XmlDocument*> Collection() const;

  // --- Content access ---
  //
  // Every path that adds an annotation stores its content as serialized
  // bytes (annotation::Content); the DOM is parsed on first access rather
  // than at commit or load time (parsing 50k documents would dominate
  // restart cost), once for every version that shares the content.

  /// The annotation's content DOM, parsed on the first call. The returned
  /// reference lives as long as any version holding the annotation.
  const xml::XmlDocument& ContentOf(const Annotation& ann) const {
    return ann.content->dom();
  }

  /// The serialized content (ToString(false) form), never parsed:
  /// byte-exact across snapshot and WAL round trips.
  const std::string& ContentXml(const Annotation& ann) const { return ann.content->xml(); }

  /// Whether the annotation has content — the integrity check.
  bool HasContent(const Annotation& ann) const {
    return ann.content != nullptr && !ann.content->xml().empty();
  }

  // --- Snapshot restore ---

  /// One referent as decoded from a snapshot.
  struct RestoredReferent {
    Referent ref;
    /// Whether the a-graph had a referent->object "of-object" edge (absent
    /// when a later commit adopted the object id without re-marking).
    bool object_edge = false;
  };

  /// One annotation as decoded from a snapshot.
  struct RestoredAnnotation {
    Annotation ann;          // content wraps the logged bytes, parsed on demand
    std::string lower_text;  // pre-lowered content text for phrase search
  };

  /// Capacity a restore reserves beyond the snapshot's own contents for a
  /// WAL tail about to replay on top (all zero: size for the snapshot
  /// alone).
  struct RestoreHeadroom {
    size_t annotations = 0;
    size_t marks = 0;
    size_t nodes = 0;  // a-graph nodes, estimated as CommitBatch does
  };

  /// The keyword index as decoded from a snapshot: token strings in dense
  /// id order with their ascending posting lists. Restoring this verbatim
  /// skips re-tokenizing every document at load time.
  struct RestoredKeywordIndex {
    std::vector<std::string> tokens;
    std::vector<std::vector<AnnotationId>> postings;
  };

  /// Rebuilds the full store state from decoded snapshot sections. The
  /// store must be empty; `referents` and `annotations` must be ascending
  /// by id; object nodes referenced by referents must already exist in the
  /// a-graph (core::Graphitti restores objects first). Spatial entries are
  /// bulk-loaded per domain; a-graph nodes/edges are wired in the same
  /// order the original commits produced, so ExportAGraph of a restored
  /// engine matches the saved one line for line. The a-graph, dedup map
  /// and phrase text are sized for the snapshot plus `headroom`.
  util::Status RestoreSnapshotState(std::vector<RestoredReferent> referents,
                                    std::vector<RestoredAnnotation> annotations,
                                    RestoredKeywordIndex keyword_index,
                                    std::vector<std::string> term_names,
                                    uint64_t next_annotation_id,
                                    uint64_t next_referent_id,
                                    const RestoreHeadroom& headroom);

  // --- Snapshot encode accessors (core/durability.cc) ---
  const std::vector<std::string>& TermNames() const { return term_names_; }
  size_t NumTokens() const { return postings_.size(); }
  std::string_view TokenString(uint32_t token_id) const {
    return token_ids_.StringOf(token_id);
  }
  const std::vector<AnnotationId>& PostingsOf(uint32_t token_id) const {
    return postings_[token_id];
  }
  std::string_view LowerTextOf(AnnotationId id) const;
  uint64_t next_annotation_id() const { return next_annotation_id_; }
  uint64_t next_referent_id() const { return next_referent_id_; }

  /// Runs a compiled-on-the-fly XQuery over the collection; returns matching
  /// annotation ids (document order).
  util::Result<std::vector<AnnotationId>> XQuerySearch(std::string_view flwor) const;

  // --- Ontology term nodes ---

  /// Stable a-graph NodeRef for a qualified ontology term ("onto:term");
  /// creates the node on first use.
  agraph::NodeRef TermNode(const std::string& qualified);
  /// Lookup without creation; NotFound when the term was never referenced.
  util::Result<agraph::NodeRef> FindTermNode(const std::string& qualified) const;
  /// Reverse lookup; empty when the node id is unknown.
  std::string TermName(agraph::NodeRef ref) const;

  // --- a-graph node helpers ---

  /// An a-graph node's display label, derived from its record here: an
  /// annotation's title ("annotation-N" when untitled), a referent's
  /// Substructure::ToString, a term's qualified name; "" for object nodes
  /// (core::ObjectInfo::label) and nodes with no record.
  std::string NodeLabel(agraph::NodeRef ref) const;

  static agraph::NodeRef ContentNode(AnnotationId id) {
    return agraph::NodeRef::Content(id);
  }
  static agraph::NodeRef ReferentNode(ReferentId id) {
    return agraph::NodeRef::Referent(id);
  }

 private:
  /// Deferred spatial insertions for one CommitBatch: interval entries per
  /// 1D domain and canonical-frame region entries per canonical system,
  /// flushed through the IndexManager bulk builds after staging.
  /// Flush order across domains is independent (one tree per domain), so
  /// hashed maps are fine — and cheaper, as these are probed once per mark.
  struct BatchStaging {
    std::unordered_map<std::string, std::vector<spatial::IntervalEntry>> intervals;
    std::unordered_map<std::string, std::vector<spatial::RTreeEntry>> regions;
  };

  /// Clone's member-wise copy, still borrowing this store's `indexes_` and
  /// `graph_` until Clone re-points them. Private: a public copy would
  /// silently share another version's substrates.
  AnnotationStore(const AnnotationStore&) = default;

  /// The one commit pipeline behind Commit and both CommitBatch overloads.
  /// `consume` is true only for the rvalue overload, which owns the
  /// builders and may steal their metadata.
  util::Result<std::vector<AnnotationId>> CommitBatchImpl(
      const AnnotationBuilder* builders, size_t count,
      const std::vector<AnnotationId>& forced_ids,
      const std::vector<ContentPtr>& contents, bool consume);

  /// Tokenizes `ann`'s search text (content text, user-tag keys, ontology
  /// terms) into `words` — sorted, deduplicated views into `text_buf` —
  /// and returns the length of the lowered *content* prefix in `text_buf`
  /// (what the commit pipeline copies into lower_text_; this function itself
  /// mutates no store state, so the removal path reuses it freely). Both
  /// out-params are caller-owned scratch, reusable across calls (a batch
  /// tokenizes thousands of annotations with two allocations total); the
  /// views die with the next reuse of `text_buf`.
  size_t TokenizeForIndex(const Annotation& ann, std::string* text_buf,
                          std::vector<std::string_view>* words);
  /// Token id for `w`, interning it (with an empty posting list) on first
  /// sight.
  uint32_t InternToken(std::string_view w);
  /// Drops `ann`'s postings by re-deriving its token set from the stored
  /// fields (the same deterministic derivation commit used), so ingest
  /// never materializes per-annotation token vectors.
  void UnindexContentText(AnnotationId id, const Annotation& ann);
  /// Interns (or refcounts) the referent for `sub`. A new spatial referent's
  /// index entry is accumulated in `staging` for the batch's bulk flush.
  /// `node_index` receives the referent's a-graph dense index so the
  /// caller can wire edges without re-hashing the ref (valid only until
  /// the next node removal).
  util::Result<ReferentId> InternReferent(const substructure::Substructure& sub,
                                          uint64_t object_id, BatchStaging* staging,
                                          uint32_t* node_index);
  /// Removes one reference to `id`, erasing the referent entirely at zero.
  void ReleaseReferent(ReferentId id);

  spatial::IndexManager* indexes_;  // borrowed
  agraph::AGraph* graph_;           // borrowed

  std::map<AnnotationId, Annotation> annotations_;
  std::map<ReferentId, Referent> referents_;
  // Substructure -> referent, the dedup map: two marks share a referent
  // exactly when their substructures are equal (operator==). Hashed, not
  // ordered: the key is only ever used for exact lookup, and bulk ingest
  // hammers it once per mark.
  std::unordered_map<substructure::Substructure, ReferentId, substructure::SubstructureHash>
      referent_by_key_;
  // Domain -> ascending referent ids (ids are monotonically issued, so
  // push_back keeps each list sorted). Drives ForEachReferentInDomain.
  // Hashed: only per-domain lookups, never ordered iteration. Queries pay
  // one short std::string construction per call (C++17 unordered maps have
  // no heterogeneous find); ingest probes it once per new referent.
  std::unordered_map<std::string, std::vector<ReferentId>> referents_by_domain_;

  // Keyword inverted index with interned tokens: token string -> dense token
  // id; postings_[token id] is the ascending posting list of annotations
  // containing the token. Removal re-derives an annotation's token set from
  // its stored fields (see UnindexContentText), so ingest stores no
  // per-annotation token vectors. lower_text_ caches the lower-cased
  // serialized content per annotation so phrase search never re-derives
  // (and re-lowers) it per candidate.
  util::StringInterner token_ids_;
  std::vector<std::vector<AnnotationId>> postings_;
  std::unordered_map<AnnotationId, std::string> lower_text_;

  std::map<std::string, uint64_t> term_node_ids_;
  std::vector<std::string> term_names_;  // dense id -> qualified name

  uint64_t next_annotation_id_ = 1;
  uint64_t next_referent_id_ = 1;
};

}  // namespace annotation
}  // namespace graphitti

#endif  // GRAPHITTI_ANNOTATION_ANNOTATION_STORE_H_
