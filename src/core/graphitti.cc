#include "core/graphitti.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "core/durability.h"

namespace graphitti {
namespace core {

using relational::IndexKind;
using relational::Row;
using relational::RowId;
using relational::Value;
using util::Result;
using util::Status;

namespace {

/// Resolver bound to one pinned engine version: the query executor's
/// TABLE / TERM BELOW callbacks answer from the same snapshot the rest of
/// the query runs against, not from whatever version is current when the
/// callback fires.
struct BoundResolver : public query::ObjectResolver, public query::OntologyResolver {
  BoundResolver(const Graphitti* engine, const Graphitti::EngineState* state)
      : engine_(engine), state_(state) {}

  util::Result<std::vector<uint64_t>> FindObjects(
      const std::string& table, const relational::Predicate& filter) const override {
    return engine_->SearchObjectsIn(*state_, table, filter);
  }
  std::string DescribeObject(uint64_t object_id) const override {
    return engine_->DescribeObject(object_id);  // metadata: append-only
  }
  std::vector<std::string> ExpandTermBelow(const std::string& qualified) const override {
    return engine_->ExpandTermBelow(qualified);  // metadata: append-only
  }

  const Graphitti* engine_;
  const Graphitti::EngineState* state_;
};

}  // namespace

std::string SystemStats::ToString() const {
  std::string out;
  out += "tables=" + std::to_string(num_tables) + " rows=" + std::to_string(total_rows);
  out += " objects=" + std::to_string(num_objects);
  out += " annotations=" + std::to_string(num_annotations);
  out += " referents=" + std::to_string(num_referents);
  out += " interval_trees=" + std::to_string(num_interval_trees) + "(" +
         std::to_string(interval_entries) + " entries)";
  out += " rtrees=" + std::to_string(num_rtrees) + "(" + std::to_string(region_entries) +
         " entries)";
  out += " agraph=" + std::to_string(agraph_nodes) + "n/" + std::to_string(agraph_edges) +
         "e";
  out += " ontologies=" + std::to_string(num_ontologies) + "(" +
         std::to_string(ontology_terms) + " terms)";
  return out;
}

// --- EngineState ---

Graphitti::EngineState::EngineState()
    : store(std::make_unique<annotation::AnnotationStore>(&indexes, &graph)) {}

void Graphitti::EngineState::InstallBuiltins() {
  auto create = [&](std::string_view name, relational::Schema schema,
                    std::string_view key_column) {
    auto table = catalog.CreateTable(std::string(name), std::move(schema));
    (void)(*table)->CreateIndex(key_column, IndexKind::kHash);
  };
  create(kTableDna, DnaSequenceSchema(), "accession");
  create(kTableRna, RnaSequenceSchema(), "accession");
  create(kTableProtein, ProteinSequenceSchema(), "accession");
  create(kTableImage, ImageSchema(), "name");
  create(kTablePhyloTree, PhyloTreeSchema(), "name");
  create(kTableInteractionGraph, InteractionGraphSchema(), "name");
  create(kTableMsa, MsaSchema(), "name");
  // Organism is a common search key in both sequence tables.
  (void)catalog.GetTable(kTableDna)->CreateIndex("organism", IndexKind::kHash);
  (void)catalog.GetTable(kTableRna)->CreateIndex("organism", IndexKind::kHash);
  (void)catalog.GetTable(kTableProtein)->CreateIndex("organism", IndexKind::kHash);
}

std::unique_ptr<Graphitti::EngineState> Graphitti::EngineState::Clone() const {
  auto copy = std::make_unique<EngineState>();
  copy->catalog = catalog.Clone();
  copy->indexes = indexes.Clone();
  copy->graph = graph.Clone();
  copy->store = store->Clone(&copy->indexes, &copy->graph);
  return copy;
}

Graphitti::Graphitti() {
  auto initial = std::make_unique<EngineState>();
  initial->InstallBuiltins();
  epochs_->Publish(std::move(initial));
}

// --- Version publication plumbing ---

std::unique_ptr<Graphitti::EngineState> Graphitti::AcquireScratch() {
  if (last_op_ != nullptr) {
    // The standby is the version the last publish retired: one op behind.
    std::unique_ptr<util::Versioned> standby = epochs_->TakeRecyclable();
    if (standby != nullptr && last_op_(*static_cast<EngineState*>(standby.get())).ok()) {
      return std::unique_ptr<EngineState>(static_cast<EngineState*>(standby.release()));
    }
  }
  // No recyclable standby (a long reader still pins it, the last publish
  // recorded no op, or replay failed): pay one full clone.
  epochs_->DropRecyclable();
  return CurrentState()->Clone();
}

void Graphitti::PublishOp(std::unique_ptr<EngineState> next, EngineOp op) {
  epochs_->Publish(std::move(next));
  last_op_ = std::move(op);
  // Unreplayable mutation: the just-retired version can never be caught
  // up, so stop it from being recycled.
  if (last_op_ == nullptr) epochs_->DropRecyclable();
}

util::Status Graphitti::Mutate(const std::function<util::Status(EngineState&)>& fn) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  if (env_ != nullptr) {
    return Status::Unsupported("Mutate() requires an in-memory engine: it is not logged");
  }
  std::unique_ptr<EngineState> scratch = AcquireScratch();
  GRAPHITTI_RETURN_NOT_OK(fn(*scratch));
  PublishOp(std::move(scratch), nullptr);
  return Status::OK();
}

// --- Coordinate systems ---

util::Status Graphitti::RegisterCoordinateSystem(std::string_view name, int dims) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  // As in CommitAnnotations: a call the published version refuses takes no
  // scratch, so it leaves the recyclable standby alone.
  GRAPHITTI_RETURN_NOT_OK(
      CurrentState()->indexes.coordinate_systems().ValidateCanonical(name, dims));
  std::unique_ptr<EngineState> scratch = AcquireScratch();
  EngineOp op = [name = std::string(name), dims](EngineState& s) {
    return s.indexes.coordinate_systems().RegisterCanonical(name, dims);
  };
  GRAPHITTI_RETURN_NOT_OK(op(*scratch));
  if (env_ != nullptr) {
    GRAPHITTI_RETURN_NOT_OK(WalAppend(persist::WalRecordType::kCoordSystem,
                                      walrec::EncodeCoordSystem(name, dims)));
  }
  PublishOp(std::move(scratch), std::move(op));
  return Status::OK();
}

util::Status Graphitti::RegisterDerivedCoordinateSystem(
    std::string_view name, std::string_view canonical,
    const std::array<double, spatial::Rect::kMaxDims>& scale,
    const std::array<double, spatial::Rect::kMaxDims>& offset) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  GRAPHITTI_RETURN_NOT_OK(CurrentState()->indexes.coordinate_systems().ValidateDerived(
      name, canonical, scale));
  std::unique_ptr<EngineState> scratch = AcquireScratch();
  EngineOp op = [name = std::string(name), canonical = std::string(canonical), scale,
                 offset](EngineState& s) {
    return s.indexes.coordinate_systems().RegisterDerived(name, canonical, scale, offset);
  };
  GRAPHITTI_RETURN_NOT_OK(op(*scratch));
  if (env_ != nullptr) {
    GRAPHITTI_RETURN_NOT_OK(
        WalAppend(persist::WalRecordType::kDerivedCoordSystem,
                  walrec::EncodeDerivedCoordSystem(name, canonical, scale, offset)));
  }
  PublishOp(std::move(scratch), std::move(op));
  return Status::OK();
}

// --- Ontologies (engine-level metadata: no version publication) ---

util::Status Graphitti::LoadOntologyInto(std::string name, std::string_view obo_text) {
  {
    util::MutexLock meta(meta_mu_);
    if (ontologies_.find(name) != ontologies_.end()) {
      return Status::AlreadyExists("ontology '" + name + "' already loaded");
    }
  }
  GRAPHITTI_ASSIGN_OR_RETURN(ontology::Ontology onto, ontology::ParseObo(obo_text, name));
  util::MutexLock meta(meta_mu_);
  auto [it, inserted] = ontologies_.emplace(std::move(name), std::move(onto));
  if (!inserted) {
    return Status::AlreadyExists("ontology '" + it->first + "' already loaded");
  }
  return Status::OK();
}

util::Result<const ontology::Ontology*> Graphitti::LoadOntology(
    std::string name, std::string_view obo_text) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  {
    util::MutexLock meta(meta_mu_);
    if (ontologies_.find(name) != ontologies_.end()) {
      return Status::AlreadyExists("ontology '" + name + "' already loaded");
    }
  }
  GRAPHITTI_ASSIGN_OR_RETURN(ontology::Ontology onto, ontology::ParseObo(obo_text, name));
  if (env_ != nullptr) {
    // Logged (verbatim, so replay parses exactly what this call parsed)
    // BEFORE the registry insert makes it observable: a WAL failure means
    // the ontology never appears at all.
    GRAPHITTI_RETURN_NOT_OK(
        WalAppend(persist::WalRecordType::kOntology, walrec::EncodeOntology(name, obo_text)));
  }
  util::MutexLock meta(meta_mu_);
  auto [it, _] = ontologies_.emplace(std::move(name), std::move(onto));
  return &it->second;
}

const ontology::Ontology* Graphitti::GetOntology(std::string_view name) const {
  (void)EnsureHydrated();
  util::MutexLock meta(meta_mu_);
  auto it = ontologies_.find(name);
  return it == ontologies_.end() ? nullptr : &it->second;
}

std::vector<std::string> Graphitti::OntologyNames() const {
  (void)EnsureHydrated();
  util::MutexLock meta(meta_mu_);
  std::vector<std::string> out;
  out.reserve(ontologies_.size());  // performance-inefficient-vector-operation
  for (const auto& [name, _] : ontologies_) out.push_back(name);
  return out;
}

// --- Ingestion ---

util::Result<uint64_t> Graphitti::CommitRowInsert(std::string table, relational::Row row,
                                                  std::string label) {
  // As in CommitAnnotations, the published version refuses a bad ingest
  // before it takes scratch or draws an object id. Table::Insert runs the
  // same schema check on scratch.
  const relational::Table* published = CurrentState()->catalog.GetTable(table);
  if (published == nullptr) {
    return Status::NotFound("table '" + table + "' not found");
  }
  GRAPHITTI_RETURN_NOT_OK(published->schema().ValidateRow(row));
  // Rows append, and scratch is a copy of the published version, so the
  // row lands at the published table's size.
  const RowId rid = published->size();
  if (label.empty()) label = table + "/row" + std::to_string(rid);
  uint64_t id = 0;
  {
    util::MutexLock meta(meta_mu_);
    id = next_object_id_++;
  }
  ObjectInfo info{id, table, rid, std::move(label)};
  // The kObject record carries the row's values so replay can re-insert it
  // (the row and the registration are one logical mutation; see
  // ApplyWalRecord).
  std::string record;
  if (env_ != nullptr) record = walrec::EncodeObject(info, row);
  std::unique_ptr<EngineState> scratch = AcquireScratch();
  EngineOp op = [table = std::move(table), row = std::move(row), id](EngineState& s) -> Status {
    relational::Table* t = s.catalog.GetTable(table);
    if (t == nullptr) {
      return Status::Internal("table '" + table + "' missing during op replay");
    }
    GRAPHITTI_RETURN_NOT_OK(t->Insert(row).status());
    s.graph.EnsureNode(agraph::NodeRef::Object(id));
    return Status::OK();
  };
  GRAPHITTI_RETURN_NOT_OK(op(*scratch));
  if (env_ != nullptr) {
    // A failed append discards the unpublished scratch: the mutation never
    // becomes visible.
    GRAPHITTI_RETURN_NOT_OK(WalAppend(persist::WalRecordType::kObject, std::move(record)));
  }
  {
    util::MutexLock meta(meta_mu_);
    object_by_row_[info.table][rid] = id;
    objects_.emplace(id, std::move(info));
  }
  PublishOp(std::move(scratch), std::move(op));
  return id;
}

util::Result<uint64_t> Graphitti::IngestDnaSequence(std::string accession,
                                                    std::string organism,
                                                    std::string segment,
                                                    std::string residues) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  int64_t length = static_cast<int64_t>(residues.size());
  Row row{Value::Str(accession), Value::Str(std::move(organism)),
          Value::Str(std::move(segment)), Value::Int(length),
          Value::Str(std::move(residues))};
  return CommitRowInsert(std::string(kTableDna), std::move(row),
                         std::string(kTableDna) + "/" + accession);
}

util::Result<uint64_t> Graphitti::IngestRnaSequence(std::string accession,
                                                    std::string organism,
                                                    std::string segment,
                                                    std::string residues) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  int64_t length = static_cast<int64_t>(residues.size());
  Row row{Value::Str(accession), Value::Str(std::move(organism)),
          Value::Str(std::move(segment)), Value::Int(length),
          Value::Str(std::move(residues))};
  return CommitRowInsert(std::string(kTableRna), std::move(row),
                         std::string(kTableRna) + "/" + accession);
}

util::Result<uint64_t> Graphitti::IngestProteinSequence(std::string accession,
                                                        std::string organism,
                                                        std::string protein_name,
                                                        std::string residues) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  int64_t length = static_cast<int64_t>(residues.size());
  Row row{Value::Str(accession), Value::Str(std::move(organism)),
          Value::Str(std::move(protein_name)), Value::Int(length),
          Value::Str(std::move(residues))};
  return CommitRowInsert(std::string(kTableProtein), std::move(row),
                         std::string(kTableProtein) + "/" + accession);
}

util::Result<uint64_t> Graphitti::IngestImage(std::string name,
                                              std::string coordinate_system,
                                              std::string modality, int64_t width,
                                              int64_t height, int64_t depth,
                                              std::vector<uint8_t> pixels) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  if (!CurrentState()->indexes.coordinate_systems().Contains(coordinate_system)) {
    return Status::NotFound("coordinate system '" + coordinate_system +
                            "' not registered; call RegisterCoordinateSystem first");
  }
  Row row{Value::Str(name), Value::Str(std::move(coordinate_system)),
          Value::Str(std::move(modality)), Value::Int(width), Value::Int(height),
          Value::Int(depth), Value::Blob(std::move(pixels))};
  return CommitRowInsert(std::string(kTableImage), std::move(row),
                         std::string(kTableImage) + "/" + name);
}

util::Result<uint64_t> Graphitti::IngestPhyloTree(std::string name, std::string_view newick) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  GRAPHITTI_ASSIGN_OR_RETURN(PhyloTree tree, PhyloTree::FromNewick(newick));
  Row row{Value::Str(name), Value::Int(static_cast<int64_t>(tree.num_leaves())),
          Value::Str(std::string(newick))};
  return CommitRowInsert(std::string(kTablePhyloTree), std::move(row),
                         std::string(kTablePhyloTree) + "/" + name);
}

util::Result<uint64_t> Graphitti::IngestInteractionGraph(const InteractionGraph& graph) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  if (graph.name().empty()) {
    return Status::InvalidArgument("interaction graph needs a name");
  }
  Row row{Value::Str(graph.name()), Value::Int(static_cast<int64_t>(graph.num_nodes())),
          Value::Int(static_cast<int64_t>(graph.num_edges())), Value::Str(graph.ToText())};
  return CommitRowInsert(std::string(kTableInteractionGraph), std::move(row),
                         std::string(kTableInteractionGraph) + "/" + graph.name());
}

util::Result<uint64_t> Graphitti::IngestMsa(const Msa& msa) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  if (!msa.valid()) {
    return Status::InvalidArgument("MSA rows must be non-empty and share one length");
  }
  std::string payload;
  for (const auto& [name, seq] : msa.rows) {
    payload += name + "\t" + seq + "\n";
  }
  Row row{Value::Str(msa.name), Value::Int(static_cast<int64_t>(msa.rows.size())),
          Value::Int(static_cast<int64_t>(msa.num_columns())), Value::Str(payload)};
  return CommitRowInsert(std::string(kTableMsa), std::move(row),
                         std::string(kTableMsa) + "/" + msa.name);
}

util::Status Graphitti::CreateTable(std::string name, relational::Schema schema) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  GRAPHITTI_RETURN_NOT_OK(CurrentState()->catalog.ValidateCreateTable(name));
  std::unique_ptr<EngineState> scratch = AcquireScratch();
  EngineOp op = [name, schema](EngineState& s) {
    return s.catalog.CreateTable(name, schema).status();
  };
  GRAPHITTI_RETURN_NOT_OK(op(*scratch));
  if (env_ != nullptr) {
    GRAPHITTI_RETURN_NOT_OK(WalAppend(persist::WalRecordType::kCreateTable,
                                      walrec::EncodeCreateTable(name, schema)));
  }
  PublishOp(std::move(scratch), std::move(op));
  return Status::OK();
}

util::Result<uint64_t> Graphitti::IngestRecord(std::string_view table, relational::Row row,
                                               std::string label) {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  return CommitRowInsert(std::string(table), std::move(row), std::move(label));
}

// --- Objects ---

const ObjectInfo* Graphitti::GetObject(uint64_t object_id) const {
  (void)EnsureHydrated();
  util::MutexLock meta(meta_mu_);
  auto it = objects_.find(object_id);
  return it == objects_.end() ? nullptr : &it->second;
}

size_t Graphitti::num_objects() const {
  (void)EnsureHydrated();
  util::EpochPin pin = epochs_->PinCurrent();
  util::MutexLock meta(meta_mu_);
  return NumObjectsIn(*static_cast<const EngineState*>(pin.get()));
}

size_t Graphitti::NumObjectsIn(const EngineState& state) const {
  // Each object owns one row of its table, and rows are appended, so the
  // rows a version lacks are the tail of each table's registrations.
  size_t n = 0;
  for (const auto& [table, rows] : object_by_row_) {
    const relational::Table* t = state.catalog.GetTable(table);
    if (t == nullptr) continue;
    n += rows.size() - static_cast<size_t>(
                           std::distance(rows.lower_bound(t->size()), rows.end()));
  }
  return n;
}

std::optional<relational::Row> Graphitti::GetObjectRow(uint64_t object_id) const {
  (void)EnsureHydrated();
  std::string table_name;
  RowId row = 0;
  {
    util::MutexLock meta(meta_mu_);
    auto it = objects_.find(object_id);
    if (it == objects_.end()) return std::nullopt;
    table_name = it->second.table;
    row = it->second.row;
  }
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  const relational::Table* table = state.catalog.GetTable(table_name);
  const Row* values = table == nullptr ? nullptr : table->Get(row);
  if (values == nullptr) return std::nullopt;
  return *values;
}

util::Result<std::vector<uint64_t>> Graphitti::SearchObjectsIn(
    const EngineState& state, std::string_view table,
    const relational::Predicate& filter) const {
  const relational::Table* t = state.catalog.GetTable(table);
  if (t == nullptr) {
    return Status::NotFound("table '" + std::string(table) + "' not found");
  }
  GRAPHITTI_ASSIGN_OR_RETURN(std::vector<RowId> rows, t->Select(filter));
  std::vector<uint64_t> out;
  util::MutexLock meta(meta_mu_);
  auto tit = object_by_row_.find(table);
  if (tit == object_by_row_.end()) return out;
  for (RowId r : rows) {
    auto rit = tit->second.find(r);
    if (rit != tit->second.end()) out.push_back(rit->second);
  }
  return out;
}

util::Result<std::vector<uint64_t>> Graphitti::SearchObjects(
    std::string_view table, const relational::Predicate& filter) const {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::EpochPin pin = epochs_->PinCurrent();
  return SearchObjectsIn(*static_cast<const EngineState*>(pin.get()), table, filter);
}

util::Status Graphitti::RestoreObjectInto(EngineState& state, uint64_t object_id,
                                          std::string_view table, relational::RowId row,
                                          std::string label) {
  if (object_id == 0) return Status::InvalidArgument("object id 0 is reserved");
  const relational::Table* t = state.catalog.GetTable(table);
  if (t == nullptr || row >= t->size()) {
    return Status::Internal("object " + std::to_string(object_id) + " references row " +
                            std::to_string(row) + " beyond table '" + std::string(table) +
                            "'");
  }
  util::MutexLock meta(meta_mu_);
  if (objects_.count(object_id) > 0) {
    return Status::AlreadyExists("object id " + std::to_string(object_id) + " in use");
  }
  ObjectInfo info;
  info.id = object_id;
  info.table = std::string(table);
  info.row = row;
  info.label = std::move(label);
  state.graph.EnsureNode(agraph::NodeRef::Object(object_id));
  object_by_row_[info.table][row] = object_id;
  objects_.emplace(object_id, std::move(info));
  next_object_id_ = std::max(next_object_id_, object_id + 1);
  return Status::OK();
}

// --- Annotation ---

util::Status Graphitti::AdmitCommit(util::AdmissionController::Ticket* ticket) {
  if (admission_ == nullptr) return Status::OK();
  Status admit =
      admission_->Admit(util::AdmissionController::WorkClass::kCommit, ticket);
  if (!admit.ok()) {
    gov_counters_.resource_exhausted.fetch_add(1, std::memory_order_relaxed);
  }
  return admit;
}

util::Result<annotation::AnnotationId> Graphitti::Commit(
    const annotation::AnnotationBuilder& builder) {
  GRAPHITTI_ASSIGN_OR_RETURN(std::vector<annotation::AnnotationId> ids,
                             CommitAnnotations(&builder, 1));
  return ids.front();
}

util::Result<std::vector<annotation::AnnotationId>> Graphitti::CommitBatch(
    const std::vector<annotation::AnnotationBuilder>& builders) {
  return CommitAnnotations(builders.data(), builders.size());
}

util::Result<std::vector<annotation::AnnotationId>> Graphitti::CommitAnnotations(
    const annotation::AnnotationBuilder* builders, size_t count) {
  util::AdmissionController::Ticket ticket;
  GRAPHITTI_RETURN_NOT_OK(AdmitCommit(&ticket));
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  // A refused batch is refused by the published version alike, so it
  // costs only this check and leaves the recyclable standby alone.
  GRAPHITTI_RETURN_NOT_OK(CurrentState()->store->ValidateBatch(builders, count).status());
  std::unique_ptr<EngineState> scratch = AcquireScratch();
  GRAPHITTI_ASSIGN_OR_RETURN(std::vector<annotation::AnnotationId> ids,
                             scratch->store->CommitBatch(builders, count));
  if (env_ != nullptr && !ids.empty()) {
    GRAPHITTI_RETURN_NOT_OK(
        WalAppend(persist::WalRecordType::kCommitBatch,
                  walrec::EncodeCommitBatch(*scratch->store, builders, ids)));
  }
  if (count > kMaxReplayBatch) {
    // Replaying a bulk load onto the standby would double its cost;
    // publish unreplayable and let the next commit pay one clone.
    PublishOp(std::move(scratch), nullptr);
  } else {
    // The replay repeats this commit under its ids and adopts the content
    // objects it built, so catching the standby up serializes nothing.
    std::vector<annotation::AnnotationBuilder> batch(builders, builders + count);
    std::vector<annotation::ContentPtr> contents;
    contents.reserve(ids.size());
    for (annotation::AnnotationId id : ids) contents.push_back(scratch->store->Get(id)->content);
    PublishOp(std::move(scratch), [batch = std::move(batch), ids,
                                   contents = std::move(contents)](EngineState& s) {
      return s.store->CommitBatch(batch.data(), batch.size(), ids, contents).status();
    });
  }
  return ids;
}

util::Status Graphitti::RemoveAnnotation(annotation::AnnotationId id) {
  util::AdmissionController::Ticket ticket;
  GRAPHITTI_RETURN_NOT_OK(AdmitCommit(&ticket));
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::MutexLock commit(commit_mu_);
  GRAPHITTI_RETURN_NOT_OK(WalGuard());
  // As in CommitAnnotations: refuse an unknown id before taking scratch.
  if (CurrentState()->store->Get(id) == nullptr) {
    return Status::NotFound("annotation " + std::to_string(id) + " not found");
  }
  std::unique_ptr<EngineState> scratch = AcquireScratch();
  EngineOp op = [id](EngineState& s) { return s.store->Remove(id); };
  GRAPHITTI_RETURN_NOT_OK(op(*scratch));
  if (env_ != nullptr) {
    GRAPHITTI_RETURN_NOT_OK(
        WalAppend(persist::WalRecordType::kRemove, walrec::EncodeRemove(id)));
  }
  PublishOp(std::move(scratch), std::move(op));
  return Status::OK();
}

std::vector<annotation::AnnotationId> Graphitti::AnnotationsOnObject(
    uint64_t object_id) const {
  (void)EnsureHydrated();
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  std::vector<annotation::AnnotationId> out;
  agraph::NodeRef object_node = agraph::NodeRef::Object(object_id);
  for (const agraph::NodeRef& ref : state.graph.Neighbors(object_node)) {
    if (ref.kind != agraph::NodeKind::kReferent) continue;
    for (const agraph::NodeRef& content : state.graph.Neighbors(ref)) {
      if (content.kind == agraph::NodeKind::kContent) out.push_back(content.id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- Query ---

util::Result<query::QueryResult> Graphitti::Query(std::string_view query_text) const {
  return Query(query_text, query::ExecutorOptions{});
}

util::Result<query::QueryResult> Graphitti::Query(
    std::string_view query_text, const query::ExecutorOptions& options) const {
  // Admission is decided before any snapshot is pinned, so a shed query
  // costs nothing but the admission check itself.
  util::AdmissionController::Ticket ticket;
  if (admission_ != nullptr) {
    Status admit = admission_->Admit(
        util::AdmissionController::WorkClass::kRead, &ticket);
    if (!admit.ok()) {
      gov_counters_.resource_exhausted.fetch_add(1, std::memory_order_relaxed);
      return admit;
    }
  }
  // Pin once for the whole parse + execute + first-page materialization:
  // the executor sees one commit-consistent version and is never blocked
  // by (or blocks) writers. The pin rides along on the result so page
  // flips keep answering from the same snapshot.
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  BoundResolver resolver(this, &state);
  query::QueryContext ctx;
  ctx.store = state.store.get();
  ctx.indexes = &state.indexes;
  ctx.graph = &state.graph;
  ctx.objects = &resolver;
  ctx.ontologies = &resolver;
  query::Executor executor(ctx, options);
  util::Result<query::QueryResult> result = executor.ExecuteText(query_text);
  if (result.ok()) {
    result->snapshot = std::move(pin);
  } else if (result.status().IsDeadlineExceeded()) {
    gov_counters_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status().IsCancelled()) {
    gov_counters_.cancelled.fetch_add(1, std::memory_order_relaxed);
  } else if (result.status().IsResourceExhausted()) {
    gov_counters_.resource_exhausted.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

util::Status Graphitti::MaterializePage(query::QueryResult* result, size_t page) const {
  util::AdmissionController::Ticket ticket;
  if (admission_ != nullptr) {
    Status admit = admission_->Admit(
        util::AdmissionController::WorkClass::kRead, &ticket);
    if (!admit.ok()) {
      gov_counters_.resource_exhausted.fetch_add(1, std::memory_order_relaxed);
      return admit;
    }
  }
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  // Prefer the result's own pinned snapshot (results from Query always
  // carry one); fall back to the current version for hand-built results.
  util::EpochPin pin = result->snapshot ? result->snapshot : epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  BoundResolver resolver(this, &state);
  query::QueryContext ctx;
  ctx.store = state.store.get();
  ctx.indexes = &state.indexes;
  ctx.graph = &state.graph;
  ctx.objects = &resolver;
  ctx.ontologies = &resolver;
  return query::Executor(ctx).MaterializePage(result, page);
}

CorrelatedData Graphitti::Correlated(agraph::NodeRef node) const {
  (void)EnsureHydrated();
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  CorrelatedData out;
  // One-hop neighbourhood, stepping through referents to their annotations
  // and objects (the "search, browse and explore" right panel).
  std::vector<agraph::NodeRef> frontier = state.graph.Neighbors(node);
  frontier.push_back(node);
  std::vector<agraph::NodeRef> expanded;
  for (const agraph::NodeRef& n : frontier) {
    expanded.push_back(n);
    if (n.kind == agraph::NodeKind::kReferent || n.kind == agraph::NodeKind::kContent) {
      for (const agraph::NodeRef& m : state.graph.Neighbors(n)) expanded.push_back(m);
    }
  }
  std::sort(expanded.begin(), expanded.end());
  expanded.erase(std::unique(expanded.begin(), expanded.end()), expanded.end());
  for (const agraph::NodeRef& n : expanded) {
    if (n == node) continue;
    switch (n.kind) {
      case agraph::NodeKind::kContent:
        out.annotations.push_back(n.id);
        break;
      case agraph::NodeKind::kReferent:
        out.referents.push_back(n.id);
        break;
      case agraph::NodeKind::kDataObject:
        out.objects.push_back(n.id);
        break;
      case agraph::NodeKind::kOntologyTerm: {
        std::string name = state.store->TermName(n);
        if (!name.empty()) out.terms.push_back(name);
        break;
      }
    }
  }
  return out;
}

// --- Admin ---

SystemStats Graphitti::Stats() const {
  (void)EnsureHydrated();
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  SystemStats s;
  s.num_tables = state.catalog.num_tables();
  s.total_rows = state.catalog.TotalRows();
  s.num_annotations = state.store->size();
  s.num_referents = state.store->num_referents();
  s.num_interval_trees = state.indexes.num_interval_trees();
  s.num_rtrees = state.indexes.num_rtrees();
  s.interval_entries = state.indexes.total_interval_entries();
  s.region_entries = state.indexes.total_region_entries();
  s.agraph_nodes = state.graph.num_nodes();
  s.agraph_edges = state.graph.num_edges();
  util::MutexLock meta(meta_mu_);
  s.num_objects = NumObjectsIn(state);
  s.num_ontologies = ontologies_.size();
  for (const auto& [_, onto] : ontologies_) s.ontology_terms += onto.num_terms();
  return s;
}

std::string Graphitti::ExportAGraph() const {
  (void)EnsureHydrated();
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  // Object labels are engine metadata. Copy out those of the objects whose
  // row the pinned version holds (NumObjectsIn's cut), so the callback reads
  // no meta_mu_-guarded member; any other object node prints no label.
  std::unordered_map<uint64_t, std::string> object_labels;
  {
    util::MutexLock meta(meta_mu_);
    for (const auto& [id, info] : objects_) {
      const relational::Table* table = state.catalog.GetTable(info.table);
      if (table != nullptr && info.row < table->size()) object_labels.emplace(id, info.label);
    }
  }
  return state.graph.ToText([&](agraph::NodeRef ref) {
    if (ref.kind != agraph::NodeKind::kDataObject) return state.store->NodeLabel(ref);
    auto it = object_labels.find(ref.id);
    return it == object_labels.end() ? std::string() : it->second;
  });
}

util::Status Graphitti::ValidateIntegrity() const {
  GRAPHITTI_RETURN_NOT_OK(EnsureHydrated());
  // One pinned version is checked end to end; cross-checks against engine
  // metadata (object registrations) copy it out under meta_mu_ first.
  util::EpochPin pin = epochs_->PinCurrent();
  const auto& state = *static_cast<const EngineState*>(pin.get());
  std::map<uint64_t, ObjectInfo> objects_copy;
  {
    util::MutexLock meta(meta_mu_);
    objects_copy.insert(objects_.begin(), objects_.end());
  }
  // 1. Every referent is backed by the right index entry (spatial kinds) and
  //    an a-graph node.
  for (annotation::ReferentId rid : state.store->ReferentIds()) {
    const annotation::Referent* ref = state.store->GetReferent(rid);
    if (ref == nullptr) return Status::Internal("referent table inconsistent");
    const auto& sub = ref->substructure;
    if (!state.graph.HasNode(agraph::NodeRef::Referent(rid))) {
      return Status::Internal("referent " + std::to_string(rid) + " missing from a-graph");
    }
    if (sub.type() == substructure::SubType::kInterval) {
      bool found = false;
      for (const auto& e : state.indexes.QueryIntervals(sub.domain(), sub.interval())) {
        if (e.id == rid && e.interval == sub.interval()) found = true;
      }
      if (!found) {
        return Status::Internal("referent " + std::to_string(rid) +
                                " missing from interval index '" + sub.domain() + "'");
      }
    } else if (sub.type() == substructure::SubType::kRegion) {
      auto hits = state.indexes.QueryRegions(sub.domain(), sub.rect());
      if (!hits.ok()) return hits.status();
      bool found = false;
      for (const auto& e : *hits) {
        if (e.id == rid) found = true;
      }
      if (!found) {
        return Status::Internal("referent " + std::to_string(rid) +
                                " missing from region index '" + sub.domain() + "'");
      }
    }
    if (ref->refcount == 0) {
      return Status::Internal("referent " + std::to_string(rid) + " has zero refcount");
    }
  }

  // 2. Every annotation's content node exists and its referents resolve.
  for (annotation::AnnotationId id : state.store->Ids()) {
    const annotation::Annotation* ann = state.store->Get(id);
    if (!state.graph.HasNode(agraph::NodeRef::Content(id))) {
      return Status::Internal("annotation " + std::to_string(id) + " missing from a-graph");
    }
    if (!state.store->HasContent(*ann)) {
      return Status::Internal("annotation " + std::to_string(id) + " has empty content");
    }
    for (annotation::ReferentId rid : ann->referents) {
      if (state.store->GetReferent(rid) == nullptr) {
        return Status::Internal("annotation " + std::to_string(id) +
                                " references dead referent " + std::to_string(rid));
      }
    }
  }

  // 3. Every a-graph content/referent node has a backing record; object
  //    nodes have registrations.
  Status status = Status::OK();
  state.graph.ForEachNode([&](agraph::NodeRef ref) {
    if (!status.ok()) return;
    switch (ref.kind) {
      case agraph::NodeKind::kContent:
        if (state.store->Get(ref.id) == nullptr) {
          status = Status::Internal("a-graph content node " + std::to_string(ref.id) +
                                    " has no stored annotation");
        }
        break;
      case agraph::NodeKind::kReferent:
        if (state.store->GetReferent(ref.id) == nullptr) {
          status = Status::Internal("a-graph referent node " + std::to_string(ref.id) +
                                    " has no referent record");
        }
        break;
      case agraph::NodeKind::kDataObject:
        if (objects_copy.find(ref.id) == objects_copy.end()) {
          status = Status::Internal("a-graph object node " + std::to_string(ref.id) +
                                    " is not registered");
        }
        break;
      case agraph::NodeKind::kOntologyTerm:
        if (state.store->TermName(ref).empty()) {
          status = Status::Internal("a-graph term node " + std::to_string(ref.id) +
                                    " has no interned name");
        }
        break;
    }
  });
  GRAPHITTI_RETURN_NOT_OK(status);

  // 4. Objects point at rows. An object whose ingest publishes after the
  //    pin is registered but has no a-graph node in `state` (its row and
  //    node publish together), so it is skipped.
  for (const auto& [id, info] : objects_copy) {
    if (!state.graph.HasNode(agraph::NodeRef::Object(id))) continue;
    const relational::Table* table = state.catalog.GetTable(info.table);
    if (table == nullptr || table->Get(info.row) == nullptr) {
      return Status::Internal("object " + std::to_string(id) + " points at a dead row in '" +
                              info.table + "'");
    }
  }
  return Status::OK();
}

// --- Resolver entry points ---

util::Result<std::vector<uint64_t>> Graphitti::FindObjects(
    const std::string& table, const relational::Predicate& filter) const {
  return SearchObjects(table, filter);
}

std::string Graphitti::DescribeObject(uint64_t object_id) const {
  (void)EnsureHydrated();
  util::MutexLock meta(meta_mu_);
  auto it = objects_.find(object_id);
  return it == objects_.end() ? ("object-" + std::to_string(object_id)) : it->second.label;
}

std::vector<std::string> Graphitti::ExpandTermBelow(const std::string& qualified) const {
  (void)EnsureHydrated();
  std::vector<std::string> out;
  size_t colon = qualified.find(':');
  if (colon == std::string::npos) {
    out.push_back(qualified);
    return out;
  }
  std::string onto_name = qualified.substr(0, colon);
  std::string term_id = qualified.substr(colon + 1);
  util::MutexLock meta(meta_mu_);
  auto oit = ontologies_.find(onto_name);
  if (oit == ontologies_.end()) {
    out.push_back(qualified);
    return out;
  }
  const ontology::Ontology* onto = &oit->second;
  ontology::TermId term = onto->FindTerm(term_id);
  if (term == ontology::kInvalidTerm) {
    out.push_back(qualified);
    return out;
  }
  ontology::RelationId is_a = onto->FindRelation("is_a");
  if (is_a == ontology::kInvalidRelation) {
    out.push_back(qualified);
    return out;
  }
  for (ontology::TermId t : onto->SubTree(term, is_a)) {
    out.push_back(onto_name + ":" + onto->term(t).id);
  }
  return out;
}

}  // namespace core
}  // namespace graphitti
