#include "annotation/annotation_store.h"

#include <algorithm>
#include <unordered_set>

#include "util/dense_set.h"
#include "util/string_util.h"
#include "xml/xquery.h"

namespace graphitti {
namespace annotation {

namespace {

// Makes room for `additional` more entries with the same amortized policy
// as AGraph::Reserve: no rehash while they fit, growth to at least twice
// the current size, and never the shrinking rehash unordered_map::reserve
// performs when asked for less than it already has.
template <typename HashMap>
void ReserveAmortized(HashMap* map, size_t additional) {
  const size_t needed = map->size() + additional;
  if (static_cast<float>(needed) <= map->bucket_count() * map->max_load_factor()) return;
  map->reserve(std::max(needed, 2 * map->size()));
}

}  // namespace

AnnotationStore::AnnotationStore(spatial::IndexManager* indexes, agraph::AGraph* graph)
    : indexes_(indexes), graph_(graph) {}

util::Result<ReferentId> AnnotationStore::InternReferent(
    const substructure::Substructure& sub, uint64_t object_id, BatchStaging* staging,
    uint32_t* node_index) {
  if (!sub.valid()) {
    return util::Status::InvalidArgument("invalid substructure: " + sub.ToString());
  }
  auto it = referent_by_key_.find(sub);
  if (it != referent_by_key_.end()) {
    Referent& ref = referents_[it->second];
    ++ref.refcount;
    if (ref.object_id == 0 && object_id != 0) ref.object_id = object_id;
    *node_index = graph_->EnsureNodeIndex(ReferentNode(it->second));
    return it->second;
  }

  ReferentId id = next_referent_id_++;

  // Spatial kinds join the shared per-domain index; this is where the
  // "one interval tree per chromosome / one R-tree per coordinate system"
  // policy is applied. The entry is staged into a per-domain accumulator
  // (flushed as one bulk load per domain), but regions canonicalize now,
  // so the flush cannot fail.
  switch (sub.type()) {
    case substructure::SubType::kInterval:
      staging->intervals[sub.domain()].push_back({sub.interval(), id});
      break;
    case substructure::SubType::kRegion: {
      GRAPHITTI_ASSIGN_OR_RETURN(
          auto canonical, indexes_->coordinate_systems().ToCanonical(sub.domain(), sub.rect()));
      staging->regions[canonical.first].push_back({canonical.second, id});
      break;
    }
    default:
      break;  // set-typed referents are stored in the referent table only
  }

  Referent ref;
  ref.id = id;
  ref.substructure = sub;
  ref.object_id = object_id;
  ref.refcount = 1;
  // Referent ids are issued monotonically and never reused, so the new id
  // always sorts last — the end hint makes this an O(1) append.
  referents_.emplace_hint(referents_.end(), id, std::move(ref));
  referents_by_domain_[sub.domain()].push_back(id);

  agraph::NodeRef node = ReferentNode(id);
  *node_index = graph_->EnsureNodeIndex(node);
  referent_by_key_.emplace(sub, id);
  if (object_id != 0) {
    agraph::NodeRef object_node = agraph::NodeRef::Object(object_id);
    graph_->EnsureNode(object_node);
    (void)graph_->AddEdge(node, object_node, kEdgeOfObject);
  }
  return id;
}

void AnnotationStore::ReleaseReferent(ReferentId id) {
  auto it = referents_.find(id);
  if (it == referents_.end()) return;
  Referent& ref = it->second;
  if (--ref.refcount > 0) return;

  switch (ref.substructure.type()) {
    case substructure::SubType::kInterval:
      (void)indexes_->RemoveInterval(ref.substructure.domain(), ref.substructure.interval(),
                                     id);
      break;
    case substructure::SubType::kRegion:
      (void)indexes_->RemoveRegion(ref.substructure.domain(), ref.substructure.rect(), id);
      break;
    default:
      break;
  }
  (void)graph_->RemoveNode(ReferentNode(id));
  auto dom = referents_by_domain_.find(ref.substructure.domain());
  if (dom != referents_by_domain_.end()) {
    auto pos = std::lower_bound(dom->second.begin(), dom->second.end(), id);
    if (pos != dom->second.end() && *pos == id) dom->second.erase(pos);
    if (dom->second.empty()) referents_by_domain_.erase(dom);
  }
  referent_by_key_.erase(ref.substructure);
  referents_.erase(it);
}

util::Result<AnnotationId> AnnotationStore::Commit(const AnnotationBuilder& builder,
                                                   AnnotationId forced_id) {
  const std::vector<AnnotationId> forced =
      forced_id == 0 ? std::vector<AnnotationId>() : std::vector<AnnotationId>{forced_id};
  GRAPHITTI_ASSIGN_OR_RETURN(std::vector<AnnotationId> ids,
                             CommitBatchImpl(&builder, 1, forced, {}, /*consume=*/false));
  return ids.front();
}

util::Result<std::vector<AnnotationId>> AnnotationStore::CommitBatch(
    const AnnotationBuilder* builders, size_t count,
    const std::vector<AnnotationId>& forced_ids, const std::vector<ContentPtr>& contents) {
  return CommitBatchImpl(builders, count, forced_ids, contents, /*consume=*/false);
}

util::Result<std::vector<AnnotationId>> AnnotationStore::CommitBatch(
    std::vector<AnnotationBuilder>&& builders,
    const std::vector<AnnotationId>& forced_ids, const std::vector<ContentPtr>& contents) {
  return CommitBatchImpl(builders.data(), builders.size(), forced_ids, contents,
                         /*consume=*/true);
}

util::Result<std::vector<AnnotationId>> AnnotationStore::ValidateBatch(
    const AnnotationBuilder* builders, size_t count,
    const std::vector<AnnotationId>& forced_ids) const {
  if (!forced_ids.empty() && forced_ids.size() != count) {
    return util::Status::InvalidArgument(
        "forced_ids must be empty or have one entry per builder");
  }
  // Forced ids jump the id counter forward; fresh ids continue from it, so
  // they can only collide with a forced id of this batch.
  std::vector<AnnotationId> ids;
  ids.reserve(count);
  std::unordered_set<AnnotationId> assigned;
  if (!forced_ids.empty()) assigned.reserve(count);
  uint64_t next_id = next_annotation_id_;
  for (size_t i = 0; i < count; ++i) {
    const AnnotationBuilder& b = builders[i];
    if (b.marks().empty()) {
      return util::Status::InvalidArgument(
          "builder " + std::to_string(i) +
          ": an annotation must mark at least one referent (it is a linker object)");
    }
    AnnotationId forced = forced_ids.empty() ? 0 : forced_ids[i];
    if (forced != 0 && (annotations_.count(forced) > 0 || assigned.count(forced) > 0)) {
      return util::Status::AlreadyExists("annotation id " + std::to_string(forced) +
                                         " already in use");
    }
    AnnotationId id = forced != 0 ? forced : next_id;
    if (!forced_ids.empty()) assigned.insert(id);
    next_id = std::max(next_id, id + 1);
    ids.push_back(id);
    // BuildContentXml's own checks, in its order: once they pass, it
    // cannot fail.
    for (const auto& [name, value] : b.user_tags()) {
      (void)value;
      if (name.empty()) {
        return util::Status::InvalidArgument("user tag with empty name");
      }
    }
    for (const auto& [sub, object_id] : b.marks()) {
      (void)object_id;
      if (!sub.valid()) {
        return util::Status::InvalidArgument("invalid marked substructure: " +
                                             sub.ToString());
      }
    }
    for (const auto& [sub, object_id] : b.marks()) {
      (void)object_id;
      if (sub.type() == substructure::SubType::kRegion) {
        // CommitBatch's staged flush must not be able to fail. ToCanonical's
        // only failure modes are an unknown system and a rect/system dims
        // mismatch, so checking those here (without transforming — the
        // staging pass does the one real canonicalization per mark)
        // guarantees it.
        GRAPHITTI_ASSIGN_OR_RETURN(int cs_dims,
                                   indexes_->coordinate_systems().Dims(sub.domain()));
        if (sub.rect().dims != cs_dims) {
          return util::Status::InvalidArgument(
              "rect dims " + std::to_string(sub.rect().dims) + " != system dims " +
              std::to_string(cs_dims));
        }
      }
    }
  }
  return ids;
}

util::Result<std::vector<AnnotationId>> AnnotationStore::CommitBatchImpl(
    const AnnotationBuilder* builders, size_t count,
    const std::vector<AnnotationId>& forced_ids, const std::vector<ContentPtr>& contents,
    bool consume) {
  if (count == 0) return std::vector<AnnotationId>();
  if (!contents.empty() && contents.size() != count) {
    return util::Status::InvalidArgument(
        "contents must be empty or have one entry per builder");
  }
  // --- Validate, then serialize each content once (unless adopted). Nothing
  // here touches shared state, so any error rejects the whole batch with
  // the store untouched.
  GRAPHITTI_ASSIGN_OR_RETURN(std::vector<AnnotationId> ids,
                             ValidateBatch(builders, count, forced_ids));
  std::vector<ContentPtr> built;
  if (contents.empty()) {
    built.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      GRAPHITTI_ASSIGN_OR_RETURN(xml::XmlDocument doc, builders[i].BuildContentXml(ids[i]));
      built.push_back(std::make_shared<const Content>(doc.ToString(false)));
    }
  }
  const std::vector<ContentPtr>& content = contents.empty() ? built : contents;
  size_t node_estimate = 0;
  size_t total_marks = 0;
  for (size_t i = 0; i < count; ++i) {
    node_estimate += 1 + builders[i].marks().size() + builders[i].ontology_refs().size();
    total_marks += builders[i].marks().size();
  }

  // --- Stage: annotation records, referent interning with spatial
  // insertion deferred into per-domain accumulators, a-graph nodes/edges,
  // and keyword tokens. Capacity for the batch is reserved up front, but
  // amortized: every per-batch cost here is proportional to the batch, not
  // to the store, because a WAL tail replays one batch per record.
  graph_->Reserve(node_estimate);
  ReserveAmortized(&referent_by_key_, total_marks);
  ReserveAmortized(&lower_text_, count);
  BatchStaging staging;
  // Token posting appends go straight onto the shared lists, which stay
  // sorted while ids arrive ascending and above every id already listed —
  // every batch without out-of-order forced ids. A list's first
  // out-of-order append records the length of its still-sorted prefix, so
  // the flush repairs it with one sort + merge; lists that stay sorted
  // cost no bookkeeping at all.
  std::unordered_map<uint32_t, size_t> sorted_prefix;
  // Scratch reused across the whole batch: the tokenization buffer, its
  // word views, and the token-lookup key.
  std::string text_buf;
  std::vector<std::string_view> words;
  // The batch's two edge labels, interned once; edges below are wired by
  // dense index so the per-mark path never re-hashes refs or labels.
  const uint32_t annotates_label = graph_->InternEdgeLabel(kEdgeAnnotates);
  const uint32_t refers_to_label = graph_->InternEdgeLabel(kEdgeRefersTo);
  for (size_t i = 0; i < count; ++i) {
    const AnnotationBuilder& b = builders[i];
    AnnotationId id = ids[i];
    Annotation ann;
    ann.id = id;
    if (consume) {
      // The rvalue overload owns the builders: steal the metadata strings
      // instead of copying 50k of them on reload.
      AnnotationBuilder& mb = const_cast<AnnotationBuilder&>(b);
      ann.dc = std::move(mb.dc_);
      ann.body = std::move(mb.body_);
      ann.user_tags = std::move(mb.user_tags_);
      ann.ontology_refs = std::move(mb.ontology_refs_);
    } else {
      ann.dc = b.dc();
      ann.body = b.body();
      ann.user_tags = b.user_tags();
      ann.ontology_refs = b.ontology_refs();
    }
    ann.content = content[i];

    const uint32_t content_idx = graph_->EnsureNodeIndex(ContentNode(id));

    for (const auto& [sub, object_id] : b.marks()) {
      // Cannot fail: everything InternReferent checks was validated above.
      uint32_t ref_idx = 0;
      GRAPHITTI_ASSIGN_OR_RETURN(ReferentId rid,
                                 InternReferent(sub, object_id, &staging, &ref_idx));
      // Skip duplicate referent links within one annotation.
      if (std::find(ann.referents.begin(), ann.referents.end(), rid) !=
          ann.referents.end()) {
        auto it = referents_.find(rid);
        if (it != referents_.end() && it->second.refcount > 1) --it->second.refcount;
        continue;
      }
      ann.referents.push_back(rid);
      graph_->AddEdgeIndexed(content_idx, ref_idx, annotates_label);
    }

    for (const OntologyRef& oref : ann.ontology_refs) {
      graph_->AddEdgeIndexed(content_idx,
                             graph_->EnsureNodeIndex(TermNode(oref.Qualified())),
                             refers_to_label);
    }

    // Postings append in place; see sorted_prefix above for the repair.
    size_t content_len = TokenizeForIndex(ann, &text_buf, &words);
    lower_text_.emplace(id, std::string(text_buf.data(), content_len));
    for (std::string_view w : words) {
      uint32_t tid = InternToken(w);
      std::vector<AnnotationId>& posting = postings_[tid];
      if (!posting.empty() && posting.back() > id) sorted_prefix.emplace(tid, posting.size());
      posting.push_back(id);
    }

    if (annotations_.empty() || annotations_.rbegin()->first < id) {
      annotations_.emplace_hint(annotations_.end(), id, std::move(ann));
    } else {
      annotations_.emplace(id, std::move(ann));
    }
  }
  next_annotation_id_ =
      std::max(next_annotation_id_, *std::max_element(ids.begin(), ids.end()) + 1);

  // --- Flush: one bulk tree build per touched domain, one sort + merge
  // per posting list an out-of-order forced id left unsorted.
  for (auto& [domain, entries] : staging.intervals) {
    GRAPHITTI_RETURN_NOT_OK(indexes_->BulkLoadIntervals(domain, std::move(entries)));
  }
  for (auto& [system, entries] : staging.regions) {
    GRAPHITTI_RETURN_NOT_OK(indexes_->BulkLoadRegions(system, std::move(entries)));
  }
  for (const auto& [tid, prefix_len] : sorted_prefix) {
    std::vector<AnnotationId>& posting = postings_[tid];
    auto rest = posting.begin() + static_cast<std::ptrdiff_t>(prefix_len);
    std::sort(rest, posting.end());
    std::inplace_merge(posting.begin(), rest, posting.end());
  }
  return ids;
}

util::Status AnnotationStore::Remove(AnnotationId id) {
  auto it = annotations_.find(id);
  if (it == annotations_.end()) {
    return util::Status::NotFound("annotation " + std::to_string(id) + " not found");
  }
  UnindexContentText(id, it->second);
  (void)graph_->RemoveNode(ContentNode(id));
  // Release referents after the content node is gone so AnnotationsOfReferent
  // stays consistent.
  for (ReferentId rid : it->second.referents) ReleaseReferent(rid);
  annotations_.erase(it);
  return util::Status::OK();
}

const Annotation* AnnotationStore::Get(AnnotationId id) const {
  auto it = annotations_.find(id);
  return it == annotations_.end() ? nullptr : &it->second;
}

const Referent* AnnotationStore::GetReferent(ReferentId id) const {
  auto it = referents_.find(id);
  return it == referents_.end() ? nullptr : &it->second;
}

std::vector<AnnotationId> AnnotationStore::Ids() const {
  std::vector<AnnotationId> out;
  out.reserve(annotations_.size());
  for (const auto& [id, _] : annotations_) out.push_back(id);
  return out;
}

std::vector<ReferentId> AnnotationStore::ReferentIds() const {
  std::vector<ReferentId> out;
  out.reserve(referents_.size());
  for (const auto& [id, _] : referents_) out.push_back(id);
  return out;
}

void AnnotationStore::ForEachAnnotation(
    const std::function<void(AnnotationId, const Annotation&)>& fn) const {
  for (const auto& [id, ann] : annotations_) fn(id, ann);
}

void AnnotationStore::ForEachReferent(
    const std::function<void(ReferentId, const Referent&)>& fn) const {
  for (const auto& [id, ref] : referents_) fn(id, ref);
}

void AnnotationStore::ForEachReferentInDomain(
    std::string_view domain,
    const std::function<void(ReferentId, const Referent&)>& fn) const {
  auto it = referents_by_domain_.find(std::string(domain));
  if (it == referents_by_domain_.end()) return;
  for (ReferentId id : it->second) {
    auto ref = referents_.find(id);
    if (ref != referents_.end()) fn(id, ref->second);
  }
}

std::vector<AnnotationId> AnnotationStore::AnnotationsOfReferent(ReferentId id) const {
  std::vector<AnnotationId> out;
  for (const agraph::NodeRef& n : graph_->Neighbors(ReferentNode(id))) {
    if (n.kind == agraph::NodeKind::kContent) out.push_back(n.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

util::Result<ReferentId> AnnotationStore::FindReferent(
    const substructure::Substructure& sub) const {
  auto it = referent_by_key_.find(sub);
  if (it == referent_by_key_.end()) {
    return util::Status::NotFound("no referent for " + sub.ToString());
  }
  return it->second;
}

size_t AnnotationStore::TokenizeForIndex(const Annotation& ann, std::string* text_buf,
                                         std::vector<std::string_view>* words) {
  std::string& text = *text_buf;
  text.clear();
  // The content document's text is the annotation's field values in build
  // order — dc fields, body, user-tag values (content is always
  // BuildContentXml's output; see CommitBatch's contents contract) — so
  // the search text is assembled from the contiguous struct fields instead
  // of a pointer-chasing DOM walk. An empty user-tag value still adds its
  // separator.
  ann.dc.AppendValuesSeparated(&text);
  if (!ann.body.empty()) {
    if (!text.empty()) text.push_back(' ');
    text.append(ann.body);
  }
  for (const auto& [k, v] : ann.user_tags) {
    (void)k;
    if (!text.empty()) text.push_back(' ');
    text.append(v);
  }
  // One lower-casing pass over the content, in place; the buffer then
  // serves both the phrase cache (the commit pipeline copies the content
  // prefix into lower_text_) and tokenization (TokenizeWordViews does no
  // case folding of its own).
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const size_t content_len = text.size();
  for (const auto& [k, v] : ann.user_tags) {
    text += ' ';
    text += k;
  }
  for (const OntologyRef& oref : ann.ontology_refs) {
    text += ' ';
    text += oref.ontology;
    text += ' ';
    text += oref.term;
  }
  for (size_t i = content_len; i < text.size(); ++i) {
    text[i] = static_cast<char>(std::tolower(static_cast<unsigned char>(text[i])));
  }
  words->clear();
  util::TokenizeWordViews(text, words);
  std::sort(words->begin(), words->end());
  words->erase(std::unique(words->begin(), words->end()), words->end());
  return content_len;
}

uint32_t AnnotationStore::InternToken(std::string_view w) {
  uint32_t tid = token_ids_.Intern(w);
  if (tid == postings_.size()) postings_.emplace_back();
  return tid;
}

void AnnotationStore::UnindexContentText(AnnotationId id, const Annotation& ann) {
  // Tokens are recomputed from the annotation's fields — the same
  // deterministic derivation commit used — instead of being materialized
  // per annotation at ingest: removal is rare, ingest is hot, and the
  // per-annotation token vectors were pure ingest overhead.
  std::string text_buf;
  std::vector<std::string_view> words;
  TokenizeForIndex(ann, &text_buf, &words);
  for (std::string_view w : words) {
    uint32_t tid = token_ids_.Find(w);
    if (tid == util::StringInterner::kNone) continue;
    std::vector<AnnotationId>& posting = postings_[tid];
    auto pos = std::lower_bound(posting.begin(), posting.end(), id);
    if (pos != posting.end() && *pos == id) posting.erase(pos);
  }
  lower_text_.erase(id);
}

std::vector<AnnotationId> AnnotationStore::SearchKeyword(std::string_view word) const {
  std::vector<std::string> tokens = util::TokenizeWords(word);
  if (tokens.size() != 1) return SearchAllKeywords(tokens);
  uint32_t tid = token_ids_.Find(tokens[0]);
  return tid == util::StringInterner::kNone ? std::vector<AnnotationId>{} : postings_[tid];
}

std::vector<AnnotationId> AnnotationStore::SearchAllKeywords(
    const std::vector<std::string>& words) const {
  // Resolve every word to its posting list up front. A word tokenizing to
  // several tokens requires all of them (phrase-less AND semantics, as
  // before); a word with no tokens or an unindexed token matches nothing.
  std::vector<const std::vector<AnnotationId>*> lists;
  if (words.empty()) return {};
  for (const std::string& w : words) {
    std::vector<std::string> tokens = util::TokenizeWords(w);
    if (tokens.empty()) return {};
    for (const std::string& t : tokens) {
      uint32_t tid = token_ids_.Find(t);
      if (tid == util::StringInterner::kNone) return {};
      lists.push_back(&postings_[tid]);
    }
  }
  std::sort(lists.begin(), lists.end());
  lists.erase(std::unique(lists.begin(), lists.end()), lists.end());
  // Intersect in ascending posting-size order: every later intersection runs
  // against a result no larger than the rarest list, and galloping makes
  // rare-against-common cost logarithmic in the common list's size.
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<AnnotationId>* a, const std::vector<AnnotationId>* b) {
              return a->size() < b->size();
            });
  std::vector<AnnotationId> acc = *lists.front();
  std::vector<AnnotationId> merged;
  for (size_t i = 1; i < lists.size() && !acc.empty(); ++i) {
    util::IntersectSorted(acc, *lists[i], &merged);
    std::swap(acc, merged);
  }
  return acc;
}

std::vector<AnnotationId> AnnotationStore::SearchPhrase(std::string_view phrase) const {
  std::vector<std::string> tokens = util::TokenizeWords(phrase);
  std::vector<AnnotationId> candidates;
  if (tokens.empty()) {
    candidates = Ids();
  } else {
    candidates = SearchAllKeywords(tokens);
  }
  std::string lower_phrase = util::ToLower(phrase);
  // The substring verification below is required even for single-word
  // phrases: posting lists also index user-tag keys and ontology terms,
  // which are not part of the serialized content this search matches.
  std::vector<AnnotationId> out;
  for (AnnotationId id : candidates) {
    auto it = lower_text_.find(id);
    if (it != lower_text_.end() && it->second.find(lower_phrase) != std::string::npos) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<const xml::XmlDocument*> AnnotationStore::Collection() const {
  std::vector<const xml::XmlDocument*> out;
  out.reserve(annotations_.size());
  for (const auto& [_, ann] : annotations_) out.push_back(&ContentOf(ann));
  return out;
}

std::string_view AnnotationStore::LowerTextOf(AnnotationId id) const {
  auto it = lower_text_.find(id);
  return it == lower_text_.end() ? std::string_view() : std::string_view(it->second);
}

util::Result<std::vector<AnnotationId>> AnnotationStore::XQuerySearch(
    std::string_view flwor) const {
  GRAPHITTI_ASSIGN_OR_RETURN(xml::XQuery query, xml::XQuery::Compile(flwor));
  std::vector<const xml::XmlDocument*> docs = Collection();
  std::vector<AnnotationId> doc_ids;
  doc_ids.reserve(annotations_.size());
  for (const auto& [id, _] : annotations_) doc_ids.push_back(id);

  std::vector<AnnotationId> out;
  for (const xml::XQueryRow& row : query.Execute(docs)) {
    out.push_back(doc_ids[row.document_index]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

util::Status AnnotationStore::RestoreSnapshotState(
    std::vector<RestoredReferent> referents, std::vector<RestoredAnnotation> annotations,
    RestoredKeywordIndex keyword_index, std::vector<std::string> term_names,
    uint64_t next_annotation_id, uint64_t next_referent_id, const RestoreHeadroom& headroom) {
  if (!annotations_.empty() || !referents_.empty() || !postings_.empty() ||
      !term_names_.empty()) {
    return util::Status::Internal("RestoreSnapshotState requires an empty store");
  }
  if (keyword_index.tokens.size() != keyword_index.postings.size()) {
    return util::Status::Internal("snapshot keyword index tokens/postings length mismatch");
  }

  // Term ids are dense and 1-based; the maps restore up front, but each
  // term's a-graph NODE is created lazily at its first referencing edge
  // below — the same order the original commits produced, so the graph
  // round-trips node for node.
  term_names_ = std::move(term_names);
  for (size_t i = 0; i < term_names_.size(); ++i) {
    term_node_ids_.emplace(term_names_[i], i + 1);
  }

  // Referents: table + dedup key + domain index now, spatial entries
  // staged for one bulk tree build per domain (the same pipeline as
  // CommitBatch). A-graph referent nodes are created lazily at first use.
  BatchStaging staging;
  // Per-referent facts the annotation loop below needs — the restored
  // Referent's address and the of-object edge flag — collected in one hash
  // map so that loop does one lookup per reference instead of an rb-tree
  // find.
  struct RefAux {
    const Referent* ref;
    bool object_edge;
  };
  std::unordered_map<ReferentId, RefAux> ref_aux;
  ref_aux.reserve(referents.size());
  referent_by_key_.reserve(referents.size() + headroom.marks);
  // Snapshot referents cluster by domain (commit order), so remember the
  // last domain bucket instead of re-hashing the domain string every row.
  std::string_view last_domain;
  std::vector<ReferentId>* last_domain_vec = nullptr;
  uint64_t prev_rid = 0;
  for (RestoredReferent& rr : referents) {
    if (rr.ref.id <= prev_rid) {
      return util::Status::Internal("snapshot referents not ascending by id");
    }
    prev_rid = rr.ref.id;
    auto ref_it = referents_.emplace_hint(referents_.end(), rr.ref.id, std::move(rr.ref));
    const Referent& ref = ref_it->second;
    const substructure::Substructure& sub = ref.substructure;
    switch (sub.type()) {
      case substructure::SubType::kInterval:
        staging.intervals[sub.domain()].push_back({sub.interval(), ref.id});
        break;
      case substructure::SubType::kRegion: {
        GRAPHITTI_ASSIGN_OR_RETURN(
            auto canonical,
            indexes_->coordinate_systems().ToCanonical(sub.domain(), sub.rect()));
        staging.regions[canonical.first].push_back({canonical.second, ref.id});
        break;
      }
      default:
        break;
    }
    if (last_domain_vec == nullptr || last_domain != sub.domain()) {
      last_domain_vec = &referents_by_domain_[sub.domain()];
      last_domain = sub.domain();
    }
    last_domain_vec->push_back(ref.id);
    referent_by_key_.emplace(sub, ref.id);
    ref_aux.emplace(ref.id, RefAux{&ref, rr.object_edge});
  }
  for (auto& [domain, entries] : staging.intervals) {
    GRAPHITTI_RETURN_NOT_OK(indexes_->BulkLoadIntervals(domain, std::move(entries)));
  }
  for (auto& [system, entries] : staging.regions) {
    GRAPHITTI_RETURN_NOT_OK(indexes_->BulkLoadRegions(system, std::move(entries)));
  }

  // Keyword index: token strings intern in dense-id order and posting
  // lists adopt verbatim — no document is tokenized at restore time.
  postings_.reserve(keyword_index.tokens.size());
  for (size_t i = 0; i < keyword_index.tokens.size(); ++i) {
    uint32_t tid = InternToken(keyword_index.tokens[i]);
    if (tid != i) {
      return util::Status::Internal("snapshot keyword index has a duplicate token");
    }
    postings_[tid] = std::move(keyword_index.postings[i]);
  }

  // Annotations: adopted as decoded (content stays unparsed), a-graph wired
  // in commit order (content node; per first-use referent: referent node,
  // then its of-object edge, then the annotates edge; then term edges). The
  // structures the WAL tail's batches grow next are sized for them too.
  const uint32_t annotates_label = graph_->InternEdgeLabel(kEdgeAnnotates);
  const uint32_t refers_to_label = graph_->InternEdgeLabel(kEdgeRefersTo);
  graph_->Reserve(annotations.size() + referents_.size() + term_names_.size() +
                  headroom.nodes);
  lower_text_.reserve(annotations.size() + headroom.annotations);
  uint64_t prev_aid = 0;
  for (RestoredAnnotation& ra : annotations) {
    Annotation& ann = ra.ann;
    const AnnotationId id = ann.id;
    if (id <= prev_aid) {
      return util::Status::Internal("snapshot annotations not ascending by id");
    }
    prev_aid = id;
    const uint32_t content_idx = graph_->EnsureNodeIndex(ContentNode(id));
    for (ReferentId rid : ann.referents) {
      auto rit = ref_aux.find(rid);
      if (rit == ref_aux.end()) {
        return util::Status::Internal("snapshot annotation " + std::to_string(id) +
                                      " references unknown referent " + std::to_string(rid));
      }
      const RefAux& aux = rit->second;
      agraph::NodeRef rnode = ReferentNode(rid);
      const bool first_use = !graph_->HasNode(rnode);
      const uint32_t ref_idx = graph_->EnsureNodeIndex(rnode);
      if (first_use && aux.ref->object_id != 0 && aux.object_edge) {
        agraph::NodeRef object_node = agraph::NodeRef::Object(aux.ref->object_id);
        graph_->EnsureNode(object_node);
        (void)graph_->AddEdge(rnode, object_node, kEdgeOfObject);
      }
      graph_->AddEdgeIndexed(content_idx, ref_idx, annotates_label);
    }
    for (const OntologyRef& oref : ann.ontology_refs) {
      std::string qualified = oref.Qualified();
      auto tit = term_node_ids_.find(qualified);
      if (tit == term_node_ids_.end()) {
        return util::Status::Internal("snapshot annotation " + std::to_string(id) +
                                      " references unknown term '" + qualified + "'");
      }
      graph_->AddEdgeIndexed(content_idx,
                             graph_->EnsureNodeIndex(agraph::NodeRef::Term(tit->second)),
                             refers_to_label);
    }
    lower_text_.emplace(id, std::move(ra.lower_text));
    annotations_.emplace_hint(annotations_.end(), id, std::move(ann));
  }

  // Terms whose every referencing annotation was later removed keep their
  // (edge-less) node in the original graph; recreate those too, appended
  // after everything else.
  for (size_t i = 0; i < term_names_.size(); ++i) {
    graph_->EnsureNode(agraph::NodeRef::Term(i + 1));
  }

  next_annotation_id_ = next_annotation_id;
  next_referent_id_ = next_referent_id;
  return util::Status::OK();
}

agraph::NodeRef AnnotationStore::TermNode(const std::string& qualified) {
  auto it = term_node_ids_.find(qualified);
  if (it != term_node_ids_.end()) {
    return agraph::NodeRef::Term(it->second);
  }
  uint64_t id = term_names_.size() + 1;  // ids are 1-based
  term_names_.push_back(qualified);
  term_node_ids_.emplace(qualified, id);
  agraph::NodeRef node = agraph::NodeRef::Term(id);
  graph_->EnsureNode(node);
  return node;
}

util::Result<agraph::NodeRef> AnnotationStore::FindTermNode(
    const std::string& qualified) const {
  auto it = term_node_ids_.find(qualified);
  if (it == term_node_ids_.end()) {
    return util::Status::NotFound("term '" + qualified + "' was never referenced");
  }
  return agraph::NodeRef::Term(it->second);
}

std::string AnnotationStore::TermName(agraph::NodeRef ref) const {
  if (ref.kind != agraph::NodeKind::kOntologyTerm || ref.id == 0 ||
      ref.id > term_names_.size()) {
    return "";
  }
  return term_names_[ref.id - 1];
}

std::string AnnotationStore::NodeLabel(agraph::NodeRef ref) const {
  if (ref.kind == agraph::NodeKind::kContent) {
    const Annotation* ann = Get(ref.id);
    if (ann == nullptr) return "";
    return ann->dc.title.empty() ? "annotation-" + std::to_string(ref.id) : ann->dc.title;
  }
  if (ref.kind == agraph::NodeKind::kReferent) {
    const Referent* referent = GetReferent(ref.id);
    return referent == nullptr ? "" : referent->substructure.ToString();
  }
  return TermName(ref);  // "" for an object node
}

std::unique_ptr<AnnotationStore> AnnotationStore::Clone(
    spatial::IndexManager* indexes, agraph::AGraph* graph) const {
  std::unique_ptr<AnnotationStore> copy(new AnnotationStore(*this));
  copy->indexes_ = indexes;
  copy->graph_ = graph;
  return copy;
}

}  // namespace annotation
}  // namespace graphitti
