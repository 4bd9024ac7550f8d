// Graphitti: the public facade. Owns every substrate (relational catalog,
// spatial indexes, XML annotation store, ontologies, a-graph) and exposes
// the three demo-tab workflows as an API:
//   - annotate: search objects, mark substructures, commit annotations,
//   - query: text queries over data + annotations,
//   - admin: statistics, export, integrity check.
//
// Thread-safety contract: epoch-pinned copy-on-write state publication.
// A Graphitti instance may be shared across threads. The engine's
// versioned state — catalog, spatial indexes, a-graph, annotation store —
// lives in an immutable EngineState version published through a
// util::EpochManager. Every public method below carries exactly one
// thread-safety tag — [read], [commit], [any-thread], [unversioned], or
// [boot] — and tools/lint/check_contracts.py fails the build if one is
// missing. The two load-bearing tags:
//
//   [read]    pins the current version on entry (one mutex-protected
//             counter bump) and runs entirely against that frozen
//             snapshot. Reads never take the commit lock, never block
//             behind a writer, and scale across cores; a reader always
//             observes a commit-consistent state across all substrates at
//             once — never a half-applied mutation.
//   [commit]  serializes on the engine's commit mutex, builds the next
//             version off to the side (recycling the previous version by
//             replaying the last published op when possible — see
//             AcquireScratch), appends to the WAL, then publishes with a
//             single pointer swing. This is the only write path: every
//             mutation of versioned state goes scratch -> WAL -> publish.
//             In-flight readers keep their pinned version; new readers
//             see the new one. Durable ordering is commit -> WAL record
//             -> publish: a mutation is never visible to any reader
//             before it is in the log, so a crash cannot surface an
//             un-logged version (WAL failure discards the unpublished
//             scratch and poisons the engine until Checkpoint).
//
// The remaining tags: [any-thread] marks lock-free reads of boot-immutable
// or atomic engine facts (safe from any thread, no pin taken);
// [unversioned] marks the read-only substrate accessors described below
// (const, unpinned, valid while no [commit] runs; the contract linter
// rejects the tag on a non-const method); [boot] marks static factories
// that construct an engine no other thread can reach yet.
//
// These contracts are additionally machine-checked: the mutexes below are
// util::Mutex capabilities, guarded members carry GUARDED_BY, and the
// commit-side helpers carry REQUIRES(commit_mu_), so the CI clang lane
// (-Werror=thread-safety) rejects any access that violates the discipline
// this comment describes. See docs/STATIC_ANALYSIS.md.
//
// Engine-level metadata that is append-only and node-stable (object
// registrations, loaded ontologies) sits beside the versioned state under
// its own small mutex; GetObject / GetOntology pointers are stable for
// the engine's lifetime as before.
//
// Nothing mutates a published version. The const substrate accessors
// (catalog()/indexes()/graph()/annotations()) hand out read-only
// references into the current version without pinning it, so a [commit]
// may retire what they point at: use them only while no writer runs.
// Direct substrate edits that no [commit] API expresses (tests, admin
// repair) go through Mutate, which builds and publishes a version like
// any other commit but is refused on a durable engine, where it could not
// be logged. Tables are append-only: nothing updates, deletes or moves a
// row, so a registered object's row stays where it was inserted.
#ifndef GRAPHITTI_CORE_GRAPHITTI_H_
#define GRAPHITTI_CORE_GRAPHITTI_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agraph/agraph.h"
#include "annotation/annotation_store.h"
#include "core/data_types.h"
#include "ontology/obo_parser.h"
#include "ontology/ontology.h"
#include "persist/env.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "query/executor.h"
#include "relational/catalog.h"
#include "spatial/index_manager.h"
#include "util/admission.h"
#include "util/epoch.h"
#include "util/governance.h"
#include "util/thread_annotations.h"

namespace graphitti {
namespace core {

/// Where a catalogued data object lives.
struct ObjectInfo {
  uint64_t id = 0;
  std::string table;
  relational::RowId row = 0;
  std::string label;  // e.g. "dna_sequences/AF144305"
};

/// Admin-tab statistics.
struct SystemStats {
  size_t num_tables = 0;
  size_t total_rows = 0;
  size_t num_objects = 0;
  size_t num_annotations = 0;
  size_t num_referents = 0;
  size_t num_interval_trees = 0;
  size_t num_rtrees = 0;
  size_t interval_entries = 0;
  size_t region_entries = 0;
  size_t agraph_nodes = 0;
  size_t agraph_edges = 0;
  size_t num_ontologies = 0;
  size_t ontology_terms = 0;

  std::string ToString() const;
};

/// The correlated-data view (the query tab's right panel): everything one
/// hop (through referents) around a node.
struct CorrelatedData {
  std::vector<annotation::AnnotationId> annotations;
  std::vector<annotation::ReferentId> referents;
  std::vector<uint64_t> objects;
  std::vector<std::string> terms;  // qualified ontology term names
};

/// Engine operating mode (see Graphitti::Health). kReadOnly is the
/// explicit degraded-mode contract after a WAL I/O failure: reads keep
/// serving from published versions, durable mutations are refused with
/// kUnavailable, and a successful Checkpoint/TryHeal restores kServing.
enum class EngineMode { kServing = 0, kReadOnly = 1 };

/// Point-in-time health snapshot, collected lock-free (every field is an
/// atomic mirror; a racing commit may or may not be counted). Counters are
/// all-time totals for this process's engine instance.
struct HealthSnapshot {
  EngineMode mode = EngineMode::kServing;
  bool durable = false;
  bool hydration_pending = false;
  uint64_t generation = 0;
  /// WAL append/sync failures (each one degrades the engine to kReadOnly).
  uint64_t wal_failures = 0;
  /// Durable mutations refused while degraded (retryable kUnavailable).
  uint64_t degraded_rejections = 0;
  /// Successful Checkpoints that cleared a degraded mode.
  uint64_t heals = 0;
  /// Queries stopped by their deadline / cancellation token / a memory or
  /// admission budget (kDeadlineExceeded / kCancelled / kResourceExhausted).
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t resource_exhausted = 0;
  /// Admission-controller totals (zero when admission is unconfigured).
  util::AdmissionCounters admission;
};

/// Configuration for a crash-safe (OpenDurable) engine.
struct DurabilityOptions {
  /// WAL group-commit policy: fsync every record (default) or every
  /// `interval_ms` milliseconds (a crash may then lose the last interval's
  /// commits, but never tear one).
  persist::WalOptions wal;
  /// Filesystem seam; nullptr = the real filesystem (persist::Env::Default).
  /// Tests inject persist::FaultInjectionEnv here.
  persist::Env* env = nullptr;
  /// Cooperative cancellation for the deferred hydration pass:
  /// RequestCancel() makes an in-flight snapshot decode / WAL replay abort
  /// with kCancelled. Cancellation is NOT sticky — the verified recovery
  /// input is restored, so Reset() + any public call retries hydration
  /// from the start.
  util::CancellationToken hydrate_cancel;
};

class Graphitti : public query::ObjectResolver, public query::OntologyResolver {
 public:
  /// One immutable published version of the engine's versioned state: the
  /// four substrates that must stay mutually consistent. Heap-allocated
  /// and never moved once built (the store borrows pointers to its sibling
  /// indexes/graph). Readers reach it through an util::EpochPin; writers
  /// build the next one via Clone() or op-replay recycling.
  struct EngineState : util::Versioned {
    relational::Catalog catalog;
    spatial::IndexManager indexes;
    agraph::AGraph graph;
    std::unique_ptr<annotation::AnnotationStore> store;

    EngineState();
    ~EngineState() override = default;
    /// Registers the built-in type tables with their hash indexes (fresh
    /// engines only; restored states decode their tables instead).
    void InstallBuiltins();
    /// Copy; the copy's store borrows the copy's indexes/graph and shares
    /// the immutable annotation content.
    std::unique_ptr<EngineState> Clone() const;
  };

  /// Creates the engine with the built-in type tables registered and
  /// indexed (accession/name hash indexes).
  Graphitti();
  ~Graphitti() override = default;
  Graphitti(const Graphitti&) = delete;
  Graphitti& operator=(const Graphitti&) = delete;

  // --- Substrate access (power users / tests) ---
  //
  // Read-only references into the *current* version, not pinned: any
  // commit retires the version they point into, so use them only while no
  // writer runs (setup, teardown, tests); concurrent readers pin through
  // the [read] API instead. They force deferred recovery first, so a
  // freshly opened durable engine hands out fully hydrated substrates.
  /// [unversioned] Read-only relational catalog.
  const relational::Catalog& catalog() const {
    (void)EnsureHydrated();
    return CurrentState()->catalog;
  }
  /// [unversioned] Read-only spatial index manager.
  const spatial::IndexManager& indexes() const {
    (void)EnsureHydrated();
    return CurrentState()->indexes;
  }
  /// [unversioned] Read-only a-graph.
  const agraph::AGraph& graph() const {
    (void)EnsureHydrated();
    return CurrentState()->graph;
  }
  /// [unversioned] Read-only annotation store.
  const annotation::AnnotationStore& annotations() const {
    (void)EnsureHydrated();
    return *CurrentState()->store;
  }

  /// [commit] Applies `fn` to a private copy of the current version and
  /// publishes the result, for direct substrate edits no other [commit]
  /// API expresses (forced annotation ids, secondary table indexes, test
  /// fixtures that corrupt state on purpose). Tables have no row update or
  /// delete, so a fixture orphans an object only by replacing the whole
  /// catalog. Readers see all of `fn`'s effects or none; an error from
  /// `fn` discards the copy unpublished.
  /// Nothing is logged, so a durable engine refuses the call with
  /// kUnsupported before running `fn`: every mutation a durable engine
  /// accepts is in its WAL.
  util::Status Mutate(const std::function<util::Status(EngineState&)>& fn);

  // --- Coordinate systems (for image/3D regions) ---

  /// [commit] Registers a canonical coordinate system.
  util::Status RegisterCoordinateSystem(std::string_view name, int dims);
  /// [commit] Registers a derived (scaled/offset) coordinate system.
  util::Status RegisterDerivedCoordinateSystem(
      std::string_view name, std::string_view canonical,
      const std::array<double, spatial::Rect::kMaxDims>& scale,
      const std::array<double, spatial::Rect::kMaxDims>& offset);

  // --- Ontologies (OntoQuest substrate) ---

  /// [commit] Parses and installs an OBO ontology under `name`.
  util::Result<const ontology::Ontology*> LoadOntology(std::string name,
                                                       std::string_view obo_text);
  /// [read] Borrowed ontology pointer (stable until engine destruction;
  /// ontologies are never unloaded).
  const ontology::Ontology* GetOntology(std::string_view name) const;
  /// [read] Names of all loaded ontologies.
  std::vector<std::string> OntologyNames() const;

  // --- Ingestion (the admin/registration flow). Each returns an object id.

  /// [commit] Registers a DNA sequence record.
  util::Result<uint64_t> IngestDnaSequence(std::string accession, std::string organism,
                                           std::string segment, std::string residues);
  /// [commit] Registers an RNA sequence record.
  util::Result<uint64_t> IngestRnaSequence(std::string accession, std::string organism,
                                           std::string segment, std::string residues);
  /// [commit] Registers a protein sequence record.
  util::Result<uint64_t> IngestProteinSequence(std::string accession, std::string organism,
                                               std::string protein_name,
                                               std::string residues);
  /// [commit] Registers an image record (coordinate system must exist).
  util::Result<uint64_t> IngestImage(std::string name, std::string coordinate_system,
                                     std::string modality, int64_t width, int64_t height,
                                     int64_t depth, std::vector<uint8_t> pixels = {});
  /// [commit] Registers a phylogenetic tree from Newick text.
  util::Result<uint64_t> IngestPhyloTree(std::string name, std::string_view newick);
  /// [commit] Registers an interaction graph.
  util::Result<uint64_t> IngestInteractionGraph(const InteractionGraph& graph);
  /// [commit] Registers a multiple sequence alignment.
  util::Result<uint64_t> IngestMsa(const Msa& msa);

  /// [commit] Creates a user-defined table (relational records are
  /// annotable too); rows go in through IngestRecord.
  util::Status CreateTable(std::string name, relational::Schema schema);
  /// [commit] Inserts a record into any table and registers it as a
  /// data object.
  util::Result<uint64_t> IngestRecord(std::string_view table, relational::Row row,
                                      std::string label = "");

  // --- Objects ---

  /// [read] Object registration info; the pointer is stable for the
  /// engine's lifetime (objects are never erased).
  const ObjectInfo* GetObject(uint64_t object_id) const;
  /// [read] Number of registered objects whose row the pinned current
  /// version holds (an ingest still in flight is not counted yet).
  size_t num_objects() const;
  /// [read] A copy of an object's metadata row, taken from the pinned
  /// current version (nullopt for an unknown object, or one whose ingest
  /// has not published yet). The copy stays valid across later commits.
  std::optional<relational::Row> GetObjectRow(uint64_t object_id) const;

  /// [read] The annotation tab's search window: find objects by metadata
  /// predicate.
  util::Result<std::vector<uint64_t>> SearchObjects(
      std::string_view table, const relational::Predicate& filter) const;
  /// [read] SearchObjects against an explicit pinned version (the query
  /// executor resolves against its snapshot through this).
  util::Result<std::vector<uint64_t>> SearchObjectsIn(
      const EngineState& state, std::string_view table,
      const relational::Predicate& filter) const;

  // --- Annotation (the annotate tab) ---

  /// [commit] [durable] Commits a built annotation across all substrates
  /// atomically with respect to concurrent [read]ers. On a durable engine
  /// the annotation is appended to the WAL (and fsynced per the
  /// group-commit policy) before it is published: a post-return crash
  /// recovers it, and a WAL failure means the commit never becomes
  /// visible at all. A mark on a non-zero object id that no registration
  /// holds is refused with kNotFound.
  util::Result<annotation::AnnotationId> Commit(const annotation::AnnotationBuilder& builder);
  /// [commit] Commits a batch of annotations through the same routine as
  /// Commit: the commit lock is taken once for the whole batch (not per
  /// annotation), referent index insertions flush as one bulk load per
  /// touched domain, and keyword postings append in one pass. The batch
  /// is all-or-nothing: every builder is validated before any state
  /// changes, and it is applied to an unpublished scratch version, so
  /// readers never observe any of a failed batch. The ingest fast path
  /// for corpus loads.
  /// [durable] The whole batch is one WAL record: recovery replays it
  /// all-or-nothing, so a crash mid-anything never resurfaces a torn batch.
  util::Result<std::vector<annotation::AnnotationId>> CommitBatch(
      const std::vector<annotation::AnnotationBuilder>& builders);
  /// [commit] [durable] Removes an annotation (and any orphaned
  /// referents).
  util::Status RemoveAnnotation(annotation::AnnotationId id);
  /// [read] Annotations whose referents mark the given object.
  std::vector<annotation::AnnotationId> AnnotationsOnObject(uint64_t object_id) const;

  // --- Query (the query tab) ---

  /// [read] Parses and executes a query against the version current at
  /// entry; concurrent Query calls from many threads scale across cores
  /// and are never blocked by writers. The returned result carries a pin
  /// on that version (QueryResult::snapshot), so later page flips replay
  /// against exactly the state the query saw. One query runs on the
  /// calling thread; throughput scales by running many queries at once.
  util::Result<query::QueryResult> Query(std::string_view query_text) const;
  /// [read] As above, with explicit executor options (deadline, token,
  /// budgets etc.).
  util::Result<query::QueryResult> Query(std::string_view query_text,
                                         const query::ExecutorOptions& options) const;

  /// [read] Flips `result` (produced by Query) to `page` and lazily
  /// materializes that page's connection subgraphs (GRAPH targets build
  /// subgraphs only for pages actually viewed; see
  /// query::Executor::MaterializePage).
  ///
  /// Subgraphs are built against the snapshot pinned by the original
  /// Query (QueryResult::snapshot): page flips are stable under
  /// concurrent writers — a commit between the Query and a later flip
  /// (or between two flips) never changes what a page shows, and the
  /// connection trees cached on the result stay valid because the pin
  /// keeps their graph alive. `result` itself is owned by the caller and
  /// must not be shared across threads without external synchronization.
  util::Status MaterializePage(query::QueryResult* result, size_t page) const;

  /// [read] The correlated-data viewer: related annotations/objects/terms
  /// around a node ("what other annotations have been made on this
  /// sequence").
  CorrelatedData Correlated(agraph::NodeRef node) const;

  // --- Persistence ---

  /// [read] Saves the full engine state as one binary snapshot,
  /// `directory`/snapshot-1 (directory created if needed): the same file a
  /// durable engine writes at its first Checkpoint, so both LoadFrom and
  /// OpenDurable open the result. Pins the current version for the encode,
  /// so the save is commit-consistent and never blocks concurrent readers
  /// or writers. The write is atomic (temp + fsync + rename + directory
  /// fsync): a crash mid-save leaves the previous save intact, and a
  /// second save into the same directory replaces the first. A directory
  /// holding a durable engine's files (any wal-<g>, or snapshot-<g> with
  /// g != 1) is refused with kAlreadyExists.
  util::Status SaveTo(const std::string& directory) const;
  /// [boot] Rebuilds an engine from a directory written by SaveTo or by a
  /// durable engine: snapshot restore plus WAL-tail replay (a torn final
  /// WAL record is truncated; mismatched snapshot/WAL generations are
  /// refused with kInternal). kNotFound when the directory is missing or
  /// holds no snapshot or WAL. The returned engine is NOT durable — new
  /// mutations are not logged; use OpenDurable for that. Annotation ids
  /// and object ids are preserved.
  static util::Result<std::unique_ptr<Graphitti>> LoadFrom(const std::string& directory);

  // --- Durability (crash safety: WAL + checkpoints) ---

  /// [boot] Opens (or creates) a crash-safe engine rooted at `directory`:
  /// recovers the newest valid snapshot, replays the WAL tail (a torn
  /// final record is a clean truncation point, not an error), attaches
  /// the WAL, and from then on logs every [durable]-tagged mutation
  /// before it publishes. A directory written by SaveTo opens at
  /// generation 1. Refuses directories whose snapshot/WAL generations
  /// cannot be recovered faithfully.
  ///
  /// Restart cost: the open itself is I/O-bound — it reads and
  /// CRC-verifies the snapshot and settles the WAL (torn-tail truncation,
  /// generation checks) but defers the in-memory state build to the first
  /// public call. Every crash-safety decision is made before this returns.
  static util::Result<std::unique_ptr<Graphitti>> OpenDurable(
      const std::string& directory, const DurabilityOptions& options = {});

  /// [commit] Writes a fresh atomic snapshot (generation g+1), starts
  /// an empty WAL for it, and deletes the previous generation's files.
  /// Serializes against other [commit] calls only — readers keep serving
  /// from their pinned versions throughout. Bounds recovery time (restart
  /// replays only the post-checkpoint tail) and heals a poisoned WAL:
  /// after any WAL I/O failure the engine refuses further durable
  /// mutations until a Checkpoint succeeds.
  util::Status Checkpoint();

  /// [commit] Attempts to restore durable service after a WAL failure:
  /// retries Checkpoint up to `max_attempts` times with exponential
  /// backoff (doubling from `initial_backoff`; no engine lock is held
  /// while backing off, so readers and writers proceed between attempts).
  /// OK once a Checkpoint succeeds — the engine is serving again — or if
  /// the engine was never degraded; otherwise the last Checkpoint error.
  util::Status TryHeal(size_t max_attempts = 5,
                       std::chrono::milliseconds initial_backoff =
                           std::chrono::milliseconds(1));

  /// [any-thread] Lock-free health snapshot: operating mode (serving vs
  /// queryable-read-only degraded mode), durability facts, and the
  /// governance counters (WAL failures, degraded-mode rejections, heals,
  /// deadline/cancel/budget query stops, admission totals).
  HealthSnapshot Health() const;

  /// [boot] Installs engine-level admission control: per-class concurrent
  /// limits with a bounded, timeout-limited wait queue (see
  /// util::AdmissionOptions). Query/MaterializePage admit as reads;
  /// Commit/CommitBatch/RemoveAnnotation admit as commits; a shed request
  /// is refused with kResourceExhausted before any snapshot is pinned or
  /// scratch built. Call before the engine is shared across threads;
  /// unconfigured engines admit everything.
  void ConfigureAdmission(const util::AdmissionOptions& options);

  /// [any-thread] Whether this engine was opened through OpenDurable
  /// (env_ is boot-immutable).
  bool IsDurable() const { return env_ != nullptr; }

  /// [any-thread] The current checkpoint generation (0 until the first
  /// Checkpoint).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // --- Admin tab ---

  /// [read] Cross-substrate statistics snapshot.
  SystemStats Stats() const;
  /// [read] Line-oriented a-graph dump.
  std::string ExportAGraph() const;
  /// [read] Cross-store consistency check: every referent is indexed
  /// exactly once, every content/referent/object node in the a-graph has a
  /// backing record, and edge labels are well-formed. Returns the first
  /// violation found.
  util::Status ValidateIntegrity() const;

  // --- Version-lifecycle observability (tests / diagnostics) ---

  /// [any-thread] Number of engine-state versions currently alive: the
  /// published one, plus any still pinned by in-flight readers or
  /// results, plus at most one parked recycle standby.
  size_t live_engine_versions() const { return epochs_->live_versions(); }
  /// [any-thread] Monotonic count of published versions; bumps once per
  /// version-changing commit.
  uint64_t engine_epoch() const { return epochs_->current_epoch(); }

  // --- query::ObjectResolver ---
  //
  // Entry points in their own right; the query executor resolves
  // against its pinned snapshot via SearchObjectsIn instead.

  /// [read] Objects matching `filter` in `table`.
  util::Result<std::vector<uint64_t>> FindObjects(
      const std::string& table, const relational::Predicate& filter) const override;
  /// [read] Human-readable one-line description of an object.
  std::string DescribeObject(uint64_t object_id) const override;

  // --- query::OntologyResolver ---
  /// [read] Qualified = "<ontology-name>:<term-id>", split at the first
  /// ':'.
  std::vector<std::string> ExpandTermBelow(const std::string& qualified) const override;

 private:
  /// A deterministic, re-appliable versioned mutation: applying it to a
  /// copy of the state it was first applied to reproduces the same result
  /// (fresh ids come from counters inside the state). The commit path
  /// applies it to scratch; AcquireScratch replays it to catch a recycled
  /// standby up.
  using EngineOp = std::function<util::Status(EngineState&)>;

  /// Batches larger than this publish without a recorded op (replaying
  /// them onto the standby would double the bulk-ingest cost); the
  /// standby is dropped and the next commit pays one clone instead.
  static constexpr size_t kMaxReplayBatch = 64;

  /// The current version. Writer-side (commit_mu_ holder) or
  /// single-threaded use; readers pin via epochs_->PinCurrent() instead.
  EngineState* CurrentState() const {
    return static_cast<EngineState*>(epochs_->Current());
  }

  /// Commit-side: a mutable next-version to apply the op to. Recycles the
  /// drained previous version by replaying last_op_ onto it; falls back
  /// to a full Clone() of current when there is no standby (a long reader
  /// still pins it) or no op to replay (the last publish recorded none).
  std::unique_ptr<EngineState> AcquireScratch() REQUIRES(commit_mu_);

  /// Commit-side: publishes `next` as the new current version and keeps
  /// `op` as last_op_ for standby replay (nullptr = unreplayable; the
  /// standby is dropped).
  void PublishOp(std::unique_ptr<EngineState> next, EngineOp op)
      REQUIRES(commit_mu_);

  /// The one annotation commit routine behind Commit and CommitBatch:
  /// admission and hydration, then under commit_mu_ the WAL guard,
  /// validation against the published version and, under meta_mu_, the
  /// object registry (a mark on an unregistered object is kNotFound; a
  /// refused batch never touches the standby), the scratch version, the
  /// store's batch pipeline over `count` builders at `builders`, one
  /// kCommitBatch WAL record, and publication — with a replay op holding a
  /// copy of the builders, their ids and their content objects when the
  /// batch has at most kMaxReplayBatch of them.
  util::Result<std::vector<annotation::AnnotationId>> CommitAnnotations(
      const annotation::AnnotationBuilder* builders, size_t count);

  /// Shared tail of the seven Ingest* methods and IngestRecord: validates
  /// the row against the published table (a refused ingest takes no
  /// scratch and draws no object id), then applies "insert row + register
  /// object `label`" to scratch, WAL-logs the kObject record, inserts the
  /// registration metadata and publishes. An empty `label` becomes
  /// "<table>/row<RowId>".
  util::Result<uint64_t> CommitRowInsert(std::string table, relational::Row row,
                                         std::string label) REQUIRES(commit_mu_);

  /// Registers object metadata + a-graph node into `state` directly (boot
  /// and recovery; no versioning), over a row `state` already holds
  /// (kInternal otherwise). Shared by snapshot restore and WAL object
  /// replay.
  util::Status RestoreObjectInto(EngineState& state, uint64_t object_id,
                                 std::string_view table, relational::RowId row,
                                 std::string label);
  /// Registered objects whose row `state` holds: the snapshot encoder's
  /// version cut. An ingest registers its object before it publishes the
  /// row, so the registry alone runs ahead of any pinned version.
  size_t NumObjectsIn(const EngineState& state) const REQUIRES(meta_mu_);
  /// Parses and installs an ontology into engine metadata without
  /// logging (boot and recovery). AlreadyExists is returned, not
  /// tolerated — callers decide.
  util::Status LoadOntologyInto(std::string name, std::string_view obo_text);

  // --- Durability plumbing (core/durability.cc) ---

  /// Admission gate: acquires a `work_class` slot into *ticket (empty when
  /// admission is unconfigured) and tallies sheds. Reads call it before
  /// pinning a version, mutators before commit_mu_, so refused work never
  /// contends with admitted work.
  util::Status Admit(util::AdmissionController::WorkClass work_class,
                     util::AdmissionController::Ticket* ticket) const;

  /// Refuses durable mutations after a WAL I/O failure (wal_failed_), so
  /// the durable log never silently develops a gap; OK on non-durable
  /// engines. Call at the top of every [durable] mutator, before any
  /// state changes.
  util::Status WalGuard() const REQUIRES(commit_mu_);
  /// Appends (and per policy fsyncs) one record; a failure poisons the
  /// engine (wal_failed_) until the next successful Checkpoint. No-op on
  /// non-durable engines. The caller must discard its unpublished scratch
  /// on failure so the un-logged mutation never becomes visible.
  util::Status WalAppend(persist::WalRecordType type, std::string payload)
      REQUIRES(commit_mu_);
  /// Serializes one version (+ engine metadata) into a snapshot body.
  std::string EncodeSnapshotBody(const EngineState& state) const;
  /// Rebuilds `state` from a snapshot body, sizing the store for `tail`
  /// more annotations on top. Boot/recovery only: `state` must be a freshly
  /// constructed version no reader can observe.
  util::Status RestoreFromSnapshotBody(std::string_view body,
                                       const annotation::AnnotationStore::RestoreHeadroom& tail,
                                       EngineState& state);
  /// Applies one WAL record other than a commit record to `state` during
  /// recovery (idempotent: duplicate deliveries of already-applied records
  /// are skipped). Boot/recovery only, like RestoreFromSnapshotBody.
  util::Status ApplyWalRecord(const persist::WalRecord& record, EngineState& state);
  /// Shared recovery core for LoadFrom (read-only) and OpenDurable.
  static util::Result<std::unique_ptr<Graphitti>> RecoverBinary(
      persist::Env* env, const std::string& directory, const DurabilityOptions& options,
      persist::RecoveryPlan plan, bool attach_wal);

  // --- Deferred recovery (the fast-restart path) ---
  //
  // RecoverBinary performs only the crash-safety work at open — CRC-verify
  // the snapshot, read the WAL and truncate its torn tail, refuse bad
  // generations — and stashes the verified bytes here. The first public
  // call (every one starts with EnsureHydrated()) decodes the snapshot and
  // replays the WAL tail into the initial version in place, which is sound
  // because no reader can have pinned it: hydration_pending_ stays true
  // for the whole decode, so every other thread blocks in HydrateNow on
  // hydrate_mu_ until the state is complete. A hydration failure (which a CRC-clean snapshot
  // makes effectively a logic bug) poisons the engine: the error is
  // sticky and every subsequent Status/Result entry point returns it.

  /// Stashed, already-verified recovery input awaiting first access.
  struct PendingRestore {
    bool has_snapshot = false;
    std::string snapshot_body;
    std::vector<persist::WalRecord> wal_records;
  };

  /// The one restore-then-replay routine behind deferred hydration:
  /// decodes the tail's commit records, restores the snapshot sized for
  /// snapshot plus tail, then replays the tail in log order. Leaves
  /// `input` intact, so a cancelled hydration can retry.
  /// Boot/recovery only, like RestoreFromSnapshotBody.
  util::Status RecoverInto(const PendingRestore& input, EngineState& state);

  /// Fast path for the per-call hook: one relaxed-cost atomic load when the
  /// engine is hydrated (always, for non-durable engines).
  util::Status EnsureHydrated() const {
    if (!hydration_pending_.load(std::memory_order_acquire)) return util::Status::OK();
    return HydrateNow();
  }
  /// Slow path: decode + replay into the initial version under
  /// hydrate_mu_.
  util::Status HydrateNow() const;
  /// Rolls a cancelled hydration back to boot state (fresh initial
  /// version, engine metadata reset) so a retried hydration decodes from
  /// scratch, and frees the half-built version at once instead of parking
  /// it as a recycle standby. Only called from HydrateNow with hydrate_mu_
  /// held.
  void DiscardPartialHydration();

  /// Version publication. Readers pin through it; writers publish under
  /// commit_mu_. shared_ptr-owned so pins on long-lived query results
  /// keep their snapshot alive independently of the engine.
  std::shared_ptr<util::EpochManager> epochs_ =
      std::make_shared<util::EpochManager>();

  /// Serializes writers: scratch acquisition, WAL appends, publication,
  /// checkpointing. Readers never take it. Lock order: commit_mu_ before
  /// meta_mu_ (commits insert registration metadata while holding both).
  mutable util::Mutex commit_mu_ ACQUIRED_BEFORE(meta_mu_);
  /// The op the last publish applied, or nullptr when it recorded none.
  /// Invariant: the recycle candidate, if any, is the version that
  /// publish retired, so replaying last_op_ onto it yields the current
  /// version.
  EngineOp last_op_ GUARDED_BY(commit_mu_);

  // Engine-level metadata: append-only, values node-stable once inserted
  // (GetObject/GetOntology hand out long-lived pointers). Guarded by
  // meta_mu_; writers additionally serialize on commit_mu_.
  mutable util::Mutex meta_mu_;
  std::map<std::string, ontology::Ontology, std::less<>> ontologies_
      GUARDED_BY(meta_mu_);
  std::map<uint64_t, ObjectInfo> objects_ GUARDED_BY(meta_mu_);
  std::map<std::string, std::map<relational::RowId, uint64_t>, std::less<>>
      object_by_row_ GUARDED_BY(meta_mu_);
  uint64_t next_object_id_ GUARDED_BY(meta_mu_) = 1;

  // Durability state (all inert on non-durable engines: env_ == nullptr).
  // env_/durable_dir_/wal_options_ are set once during boot, before the
  // engine is shared, and immutable after — read without a lock. The WAL
  // handle and poison flag are commit-side state; generation_ is atomic so
  // generation() stays a lock-free [any-thread] read.
  persist::Env* env_ = nullptr;  // borrowed (Default() or a test env)
  std::string durable_dir_;
  persist::WalOptions wal_options_;
  std::unique_ptr<persist::WalWriter> wal_ GUARDED_BY(commit_mu_);
  bool wal_failed_ GUARDED_BY(commit_mu_) = false;
  std::atomic<uint64_t> generation_{0};
  // Atomic mirror of wal_failed_ so Health() stays a lock-free
  // [any-thread] read; wal_failed_ (under commit_mu_) remains the truth
  // the commit path consults.
  std::atomic<bool> degraded_{false};
  // Governance counters, all relaxed: monotonic tallies for Health().
  // mutable: bumped from const paths (WalGuard via const mutators' guard
  // checks, Query's stop-status accounting).
  mutable struct GovCounters {
    std::atomic<uint64_t> wal_failures{0};
    std::atomic<uint64_t> degraded_rejections{0};
    std::atomic<uint64_t> heals{0};
    std::atomic<uint64_t> deadline_exceeded{0};
    std::atomic<uint64_t> cancelled{0};
    std::atomic<uint64_t> resource_exhausted{0};
  } gov_counters_;
  // Engine-level admission control; null until ConfigureAdmission ([boot])
  // installs it, then read-only for the engine's lifetime.
  std::unique_ptr<util::AdmissionController> admission_;

  // Deferred recovery state (mutable: hydration is triggered from const
  // entry points; see EnsureHydrated). hydration_pending_ is the lone
  // cross-thread signal; the rest is guarded by hydrate_mu_.
  mutable std::atomic<bool> hydration_pending_{false};
  mutable util::Mutex hydrate_mu_;
  mutable std::unique_ptr<PendingRestore> pending_restore_ GUARDED_BY(hydrate_mu_);
  /// Sticky first hydration failure (cancellation is NOT sticky: a
  /// cancelled hydration restores pending_restore_ for retry).
  mutable util::Status hydrate_status_ GUARDED_BY(hydrate_mu_);
  /// Cooperative cancellation for deferred hydration (boot-set from
  /// DurabilityOptions::hydrate_cancel, immutable after).
  util::CancellationToken hydrate_cancel_;
};

}  // namespace core
}  // namespace graphitti

#endif  // GRAPHITTI_CORE_GRAPHITTI_H_
