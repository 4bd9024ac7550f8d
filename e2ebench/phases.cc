#include "phases.h"

#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/graphitti.h"
#include "core/workload.h"
#include "query/parser.h"
#include "util/random.h"
#include "xml/xml_node.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

using graphitti::annotation::Annotation;
using graphitti::annotation::AnnotationBuilder;
using graphitti::annotation::AnnotationId;
using graphitti::annotation::Referent;
using graphitti::annotation::ReferentId;
using graphitti::core::DurabilityOptions;
using graphitti::core::Graphitti;
using graphitti::query::ExecutionStats;
using graphitti::query::QueryResult;
using graphitti::spatial::Interval;
using graphitti::spatial::Rect;
using graphitti::substructure::SubType;
using graphitti::util::Rng;

// Shares of --seconds given to each phase's timed loop.
// restart gets the largest share: it has the fewest samples (a few per
// second) and the most machine-sensitive op, first-query hydration.
constexpr double kQueryTabShare = 0.30;
constexpr double kChurnShare = 0.20;
constexpr double kAnnotateShare = 0.15;
constexpr double kRestartShare = 0.35;
// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
// The timed seconds are split into rounds of about this length (at most
// kMaxRounds); each round runs every phase once.
constexpr double kRoundSeconds = 4;
constexpr int kMaxRounds = 16;
// annotate_durable: one cycle is 1 Commit + 1 CommitBatch(16) + 17
// removes, so the corpus size is the same after every cycle.
constexpr size_t kBatchSize = 16;
constexpr size_t kRemovesPerCycle = 1 + kBatchSize;
constexpr size_t kCheckpointEvery = 20;  // cycles per Checkpoint
// churn: the writer's read-back of its own private annotations.
constexpr const char* kChurnViewQuery = "FIND CONTENTS WHERE { ?a CONTAINS \"zzchurn\" }";
// restart: the first query after every open.
constexpr const char* kFirstQuery = "FIND CONTENTS WHERE { ?a CONTAINS \"gamma\" }";

std::atomic<uint64_t> g_sink{0};  // keeps probe results observable
double g_peak_rss_mb = 0;         // largest timed-phase peak RSS so far

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t AnswerHash(const QueryResult& r) {
  uint64_t h = Mix(0, r.items.size());
  for (const auto& item : r.items) {
    h = Mix(h, item.content_id);
    h = Mix(h, item.referent_id);
    for (const auto& node : item.terminals) {
      h = Mix(h, (node.id << 2) | static_cast<uint64_t>(node.kind));
    }
  }
  return h;
}

/// Hash of the current page's materialized subgraphs.
uint64_t PageHash(const QueryResult& r) {
  uint64_t h = Mix(0, r.page);
  for (const auto& item : r.Page()) {
    h = Mix(h, item.subgraph_ready ? 1 : 0);
    h = Mix(h, item.subgraph.edges.size());
    for (const auto& node : item.subgraph.nodes) {
      h = Mix(h, (node.id << 2) | static_cast<uint64_t>(node.kind));
    }
  }
  return h;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The factor that scales a latency measured right after the reference
/// kernel took `ref_ms` to the latency at the reference speed (the kernel
/// taking kRefKernelNominalMs). Cache and memory-bandwidth contention from
/// other tenants of the host moves the kernel and the engine's in-memory
/// ops together, by up to 40% for minutes at a time, so the scaled
/// latency keeps a change in the code apart from a busy machine.
double SpeedScale(double ref_ms) { return ref_ms > 0 ? kRefKernelNominalMs / ref_ms : 1.0; }

/// Runs `fn` inside a span named `name` and returns its duration in ms.
template <typename Fn>
double Timed(const char* name, uint64_t request, Fn&& fn) {
  ScopedSpan span(name, request);
  int64_t t0 = NowNs();
  fn();
  return NsToMs(NowNs() - t0);
}

// ------------------------------------------------------------ query corpus

/// One query text with its set-up answer (the reference every timed
/// answer is compared against) and the executor's counts for it.
struct RefQuery {
  std::string text;
  uint64_t expect = 0;
  ExecutionStats stats;
};

struct KeywordOp {
  std::string word;
  RefQuery q;
};
struct WindowOp {
  std::string domain;
  Interval window{0, 0};
  std::string system;
  Rect rect;
  RefQuery interval;
  RefQuery region;
};
struct TermOp {
  std::string qualified;
  RefQuery q;
};
struct GraphOp {
  RefQuery q;
  uint64_t flip_expect = 0;
  size_t trees_built = 0;  // ConnectBatch trees after the flip
  size_t subgraphs = 0;    // subgraphs materialized after the flip
};

constexpr size_t kFlipPage = 2;

/// The heterogeneous query-tab engine (influenza + brain atlas) and the
/// seeded pools of query texts each op class cycles through.
struct QueryCorpus {
  std::unique_ptr<Graphitti> g;
  std::vector<KeywordOp> keywords;
  std::vector<WindowOp> windows;
  std::vector<TermOp> terms;
  std::vector<GraphOp> graphs;
};

bool Reference(const Graphitti& g, RefQuery* q) {
  auto r = g.Query(q->text);
  if (!r.ok()) return false;
  q->expect = AnswerHash(*r);
  q->stats = r->stats;
  return true;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

std::string GraphQueryText(const std::string& domain) {
  // The Figure 3 protease query, restricted to one segment domain.
  return "FIND GRAPH WHERE { ?a1 CONTAINS \"protease\" ; ?a2 CONTAINS \"protease\" ; "
         "?s1 IS REFERENT ; ?s1 DOMAIN \"" + domain + "\" ; ?s2 IS REFERENT ; ?s2 DOMAIN \"" +
         domain + "\" ; ?a1 ANNOTATES ?s1 ; ?a2 ANNOTATES ?s2 ; } "
         "CONSTRAIN consecutive(?s1, ?s2), disjoint(?s1, ?s2) LIMIT 10 PAGE 1";
}

bool BuildQueryCorpus(uint64_t seed, const Sizes& sizes, QueryCorpus* qc) {
  qc->g = std::make_unique<Graphitti>();
  Graphitti& g = *qc->g;
  // The demo corpus uses the generators' fixed seeds: its shape (how many
  // protease annotations share a segment) sets the Fig. 3 query's cost,
  // and a per-seed corpus would move that cost by tens of percent. The
  // run seed drives the query pools, the op order and the durable corpora.
  graphitti::core::InfluenzaParams flu;
  flu.num_annotations = sizes.flu_annotations;
  flu.protease_fraction = 0.15;
  auto flu_corpus = graphitti::core::GenerateInfluenzaStudy(&g, flu);
  if (!flu_corpus.ok()) return false;
  graphitti::core::BrainAtlasParams atlas;
  atlas.num_annotations = sizes.atlas_annotations;
  auto atlas_corpus = graphitti::core::GenerateBrainAtlas(&g, atlas);
  if (!atlas_corpus.ok()) return false;

  Rng rng(seed * 0x2545F4914F6CDD1DULL + 17);
  // Keyword pool: every word of both corpora's vocabularies once, in a
  // seeded order (the same mix of posting-list sizes for every seed).
  std::vector<std::string> words = flu_corpus->keywords;
  for (const char* w : {"synuclein", "hippocampus", "cerebellar"}) words.emplace_back(w);
  Shuffle(&words, &rng);
  for (const std::string& w : words) {
    KeywordOp op;
    op.word = w;
    op.q.text = "FIND CONTENTS WHERE { ?a CONTAINS \"" + w + "\" }";
    qc->keywords.push_back(std::move(op));
  }
  // Window pool: a 300-base interval window on one segment paired with a
  // 2000 um slab of the atlas volume.
  const std::string& system = atlas_corpus->canonical_system;
  for (size_t i = 0; i < 32; ++i) {
    WindowOp op;
    op.domain = flu_corpus->segment_domains[i % flu_corpus->segment_domains.size()];
    int64_t lo = rng.Uniform(0, 1500);
    op.window = Interval(lo, lo + 300);
    op.interval.text = "FIND REFERENTS WHERE { ?s TYPE interval ; ?s DOMAIN \"" + op.domain +
                       "\" ; ?s OVERLAPS [" + std::to_string(lo) + ", " +
                       std::to_string(lo + 300) + "] }";
    double x = static_cast<double>(rng.Uniform(0, 8000));
    op.system = system;
    op.rect = Rect::Make3D(x, 0, 0, x + 2000, 10000, 10000);
    op.region.text = "FIND REFERENTS WHERE { ?s TYPE region ; ?s DOMAIN \"" + system +
                     "\" ; ?s OVERLAPS RECT [" + std::to_string(x) + ",0,0, " +
                     std::to_string(x + 2000) + ",10000,10000] }";
    qc->windows.push_back(std::move(op));
  }
  Shuffle(&qc->windows, &rng);
  // Term pool: both ontologies' roots and first-level subtrees.
  std::vector<std::string> terms = {"nif:NIF:0000", "flu:FLU:0", "flu:FLU:1", "flu:FLU:2",
                                    "flu:FLU:3"};
  for (const std::string& t : atlas_corpus->region_terms) terms.push_back("nif:" + t);
  Shuffle(&terms, &rng);
  for (const std::string& t : terms) {
    TermOp op;
    op.qualified = t;
    op.q.text = "FIND CONTENTS WHERE { ?a IS CONTENT ; ?t TERM BELOW \"" + t +
                "\" ; ?a REFERS ?t }";
    qc->terms.push_back(std::move(op));
  }
  // Graph pool: the Fig. 3 query on every segment with a second page.
  for (const std::string& domain : flu_corpus->segment_domains) {
    GraphOp op;
    op.q.text = GraphQueryText(domain);
    auto r = g.Query(op.q.text);
    if (!r.ok()) return false;
    if (r->total_pages < kFlipPage) continue;
    if (!g.MaterializePage(&*r, kFlipPage).ok()) return false;
    op.flip_expect = PageHash(*r);
    op.trees_built = r->stats.connect_trees_built;
    op.subgraphs = r->stats.subgraphs_materialized;
    qc->graphs.push_back(std::move(op));
  }
  Shuffle(&qc->graphs, &rng);
  if (qc->graphs.empty()) return false;

  // Reference answers; this pass is also the warm-up.
  for (auto& op : qc->keywords) {
    if (!Reference(g, &op.q)) return false;
  }
  for (auto& op : qc->windows) {
    if (!Reference(g, &op.interval) || !Reference(g, &op.region)) return false;
  }
  for (auto& op : qc->terms) {
    if (!Reference(g, &op.q)) return false;
  }
  for (auto& op : qc->graphs) {
    if (!Reference(g, &op.q)) return false;
  }
  return true;
}

// ----------------------------------------------------- independent anchors
//
// A reference answer comes from the engine under test, so a timed answer
// that matches it is only known to be stable. These checks recompute the
// keyword, window and term pools' set-up answers by brute force over the
// store's annotations and referents, without the parser, the executor,
// the keyword postings, the spatial indexes or the ontology expansion.

/// Sorted annotation ids (CONTENTS) or referent ids (REFERENTS) of the
/// answer to `q`, which must still hash to its reference.
std::vector<uint64_t> AnswerIds(const Graphitti& g, const RefQuery& q, bool referents,
                                Report* report) {
  std::vector<uint64_t> ids;
  auto r = g.Query(q.text);
  report->Check(r.ok() && AnswerHash(*r) == q.expect, "anchor re-query " + q.text);
  if (!r.ok()) return ids;
  for (const auto& item : r->items) ids.push_back(referents ? item.referent_id : item.content_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Appends the text nodes under `node`, lower-cased, each after a space.
void AppendLowerText(const graphitti::xml::XmlNode* node, std::string* out) {
  if (node == nullptr) return;
  if (node->is_text()) {
    out->push_back(' ');
    for (char c : node->text()) {
      out->push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    return;
  }
  for (const auto& child : node->children()) AppendLowerText(child.get(), out);
}

/// True when `word` occurs in `text` as a whole alphanumeric run.
bool HasWord(const std::string& text, const std::string& word) {
  auto alnum = [&](size_t i) { return std::isalnum(static_cast<unsigned char>(text[i])) != 0; };
  for (size_t at = text.find(word); at != std::string::npos; at = text.find(word, at + 1)) {
    const size_t end = at + word.size();
    if ((at == 0 || !alnum(at - 1)) && (end == text.size() || !alnum(end))) return true;
  }
  return false;
}

/// `qualified` ("ontology:TERM") and every term below it, found by a walk
/// over the ontology's is_a child edges.
std::set<std::string> TermsBelow(const Graphitti& g, const std::string& qualified) {
  namespace onto = graphitti::ontology;
  std::set<std::string> out;
  const size_t colon = qualified.find(':');
  const std::string name = qualified.substr(0, colon);
  const onto::Ontology* ontology = g.GetOntology(name);
  if (ontology == nullptr) return out;
  const onto::RelationId is_a = ontology->FindRelation("is_a");
  std::vector<onto::TermId> stack = {ontology->FindTerm(qualified.substr(colon + 1))};
  if (stack.back() == onto::kInvalidTerm) return out;
  while (!stack.empty()) {
    const onto::TermId t = stack.back();
    stack.pop_back();
    if (!out.insert(name + ":" + ontology->term(t).id).second) continue;
    for (onto::TermId child : ontology->Children(t, is_a)) stack.push_back(child);
  }
  return out;
}

/// Checks each keyword, window and term set-up answer against its brute-
/// force answer, and that at least half of each pool's answers are
/// non-empty, so the comparisons are not between empty sets throughout.
void AnchorQueryCorpus(const QueryCorpus& qc, Report* report) {
  const Graphitti& g = *qc.g;
  const graphitti::annotation::AnnotationStore& store = g.annotations();
  std::vector<std::pair<AnnotationId, std::string>> texts;  // ascending ids
  std::vector<std::pair<AnnotationId, const Annotation*>> anns;
  store.ForEachAnnotation([&](AnnotationId id, const Annotation& a) {
    std::string text;
    AppendLowerText(store.ContentOf(a).root(), &text);
    texts.emplace_back(id, std::move(text));
    anns.emplace_back(id, &a);
  });
  auto mostly_nonempty = [&](size_t nonempty, size_t pool, const std::string& what) {
    report->Check(2 * nonempty >= pool, "anchor: most " + what + " answers non-empty");
  };

  size_t nonempty = 0;
  for (const KeywordOp& op : qc.keywords) {
    std::vector<uint64_t> expect;
    for (const auto& [id, text] : texts) {
      if (HasWord(text, op.word)) expect.push_back(id);
    }
    nonempty += expect.empty() ? 0 : 1;
    report->Check(AnswerIds(g, op.q, false, report) == expect, "anchor keyword " + op.word);
  }
  mostly_nonempty(nonempty, qc.keywords.size(), "keyword");

  nonempty = 0;
  for (const WindowOp& op : qc.windows) {
    std::vector<uint64_t> intervals, regions;
    store.ForEachReferent([&](ReferentId id, const Referent& ref) {
      const auto& sub = ref.substructure;
      if (sub.type() == SubType::kInterval && sub.domain() == op.domain &&
          sub.interval().Overlaps(op.window)) {
        intervals.push_back(id);
      }
      // The window's system is the canonical one: stored rects compare as is.
      if (sub.type() == SubType::kRegion && sub.domain() == op.system &&
          sub.rect().Overlaps(op.rect)) {
        regions.push_back(id);
      }
    });
    nonempty += intervals.empty() || regions.empty() ? 0 : 1;
    const bool interval_ok = AnswerIds(g, op.interval, true, report) == intervals;
    const bool region_ok = AnswerIds(g, op.region, true, report) == regions;
    report->Check(interval_ok && region_ok, "anchor window " + op.interval.text);
  }
  mostly_nonempty(nonempty, qc.windows.size(), "window");

  nonempty = 0;
  for (const TermOp& op : qc.terms) {
    const std::set<std::string> below = TermsBelow(g, op.qualified);
    std::vector<uint64_t> expect;
    for (const auto& [id, a] : anns) {
      for (const graphitti::annotation::OntologyRef& ref : a->ontology_refs) {
        if (below.count(ref.Qualified()) > 0) {
          expect.push_back(id);
          break;
        }
      }
    }
    nonempty += expect.empty() ? 0 : 1;
    report->Check(AnswerIds(g, op.q, false, report) == expect, "anchor term " + op.qualified);
  }
  mostly_nonempty(nonempty, qc.terms.size(), "term");
}

// ---------------------------------------------------------- durable corpus

/// One annotation shaped like bench_recovery's corpus: an interval on one
/// of 8 segment domains, an atlas region on every fifth, and skewed
/// keywords ("beta" on a quarter, "gamma" on every 32nd). `user_bytes` is
/// the user-supplied payload: title, creator, body and 16 bytes per mark.
AnnotationBuilder DurableBuilder(size_t i, size_t n, Rng* rng, size_t* user_bytes) {
  AnnotationBuilder b;
  std::string body = "alpha";
  if (i % 4 == 0) body += " beta";
  if (i % 32 == 0) body += " gamma observed near the mark";
  body += " w" + std::to_string(rng->Next64() % (n / 4 + 1));
  std::string title = "rec" + std::to_string(i);
  std::string creator = "annotator" + std::to_string(i % 7);
  size_t bytes = title.size() + creator.size() + body.size() + 16;
  b.Title(std::move(title)).Creator(std::move(creator)).Body(std::move(body));
  int64_t lo = static_cast<int64_t>(rng->Next64() % 1000000);
  b.MarkInterval("flu:seg" + std::to_string(i % 8), lo, lo + 120);
  if (i % 5 == 0) {
    double x = static_cast<double>(rng->Next64() % 4096);
    double y = static_cast<double>(rng->Next64() % 4096);
    b.MarkRegion("atlas", Rect::Make2D(x, y, x + 8, y + 8));
    bytes += 32;
  }
  if (user_bytes != nullptr) *user_bytes = bytes;
  return b;
}

std::vector<AnnotationBuilder> DurableBuilders(size_t first, size_t count, size_t n,
                                               Rng* rng) {
  std::vector<AnnotationBuilder> out;
  out.reserve(count);
  for (size_t i = first; i < first + count; ++i) out.push_back(DurableBuilder(i, n, rng, nullptr));
  return out;
}

/// annotate_durable's engine: an OpenDurable directory seeded with the
/// corpus and checkpointed, plus the acknowledged live-id set.
struct DurableState {
  std::string dir;
  std::unique_ptr<Graphitti> g;
  Rng rng{0};
  size_t n = 0;           // seed corpus size
  size_t next_index = 0;  // next DurableBuilder index
  std::deque<AnnotationId> remove_queue;
  std::set<AnnotationId> live;
};

DurabilityOptions DurableOptions(const Options& o, persist::Env* env) {
  using SyncPolicy = graphitti::persist::WalOptions::SyncPolicy;
  DurabilityOptions options;
  options.env = env;  // nullptr = the real filesystem, uncounted
  options.wal.sync_policy = o.group_commit ? SyncPolicy::kInterval : SyncPolicy::kEveryRecord;
  return options;
}

bool BuildDurable(const std::string& dir, uint64_t seed, size_t n,
                  const DurabilityOptions& options, DurableState* ds) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  ds->dir = dir;
  ds->n = n;
  ds->rng = Rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  auto g = Graphitti::OpenDurable(dir, options);
  if (!g.ok()) return false;
  ds->g = std::move(g).ValueUnsafe();
  if (!ds->g->RegisterCoordinateSystem("atlas", 2).ok()) return false;
  auto ids = ds->g->CommitBatch(DurableBuilders(0, n, n, &ds->rng));
  if (!ids.ok() || !ds->g->Checkpoint().ok()) return false;
  ds->next_index = n;
  std::vector<AnnotationId> order = *ids;
  Shuffle(&order, &ds->rng);
  ds->remove_queue.assign(order.begin(), order.end());
  ds->live.insert(order.begin(), order.end());
  return true;
}

/// restart's directory: a snapshot of `snapshot_n` annotations plus a WAL
/// tail of `tail_n` more in CommitBatch(16) records. `expect` receives
/// the answer hash of kFirstQuery.
bool BuildRestartDir(const std::string& dir, uint64_t seed, size_t snapshot_n, size_t tail_n,
                     const DurabilityOptions& options, uint64_t* expect) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  auto opened = Graphitti::OpenDurable(dir, options);
  if (!opened.ok()) return false;
  Graphitti& g = **opened;
  if (!g.RegisterCoordinateSystem("atlas", 2).ok()) return false;
  const size_t n = snapshot_n + tail_n;
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  std::vector<AnnotationBuilder> all = DurableBuilders(0, n, n, &rng);
  std::vector<AnnotationBuilder> head(all.begin(), all.begin() + static_cast<long>(snapshot_n));
  if (!g.CommitBatch(head).ok() || !g.Checkpoint().ok()) return false;
  for (size_t i = snapshot_n; i < n; i += kBatchSize) {
    std::vector<AnnotationBuilder> chunk(all.begin() + static_cast<long>(i),
                                         all.begin() + static_cast<long>(std::min(n, i + kBatchSize)));
    if (!g.CommitBatch(chunk).ok()) return false;
  }
  // kFirstQuery matches the body of every 32nd DurableBuilder annotation,
  // so the answer's size is known without asking the engine.
  auto r = g.Query(kFirstQuery);
  if (!r.ok() || r->items.size() != (n + 31) / 32) return false;
  *expect = AnswerHash(*r);
  return true;
}

/// Everything the four phases run on.
struct Setup {
  QueryCorpus query;
  DurableState durable;
  std::string restart_dir;
  uint64_t restart_expect = 0;
};

bool BuildSetup(const Options& o, persist::Env* env, Setup* s) {
  if (!BuildQueryCorpus(o.seed, o.sizes, &s->query)) return false;
  if (!BuildDurable(o.work_dir + "/annotate", o.seed, o.sizes.durable_annotations,
                    DurableOptions(o, env), &s->durable)) {
    return false;
  }
  s->restart_dir = o.work_dir + "/restart";
  return BuildRestartDir(s->restart_dir, o.seed, o.sizes.restart_snapshot, o.sizes.restart_tail,
                         DurableOptions(o, nullptr), &s->restart_expect);
}

// ----------------------------------------------------------------- phases

/// Latency samples of one query text, split by whether the cycle that ran
/// it was traced.
struct TextSamples {
  std::vector<double> untraced;
  std::vector<double> traced;
  void Add(bool traced_cycle, double ms) { (traced_cycle ? traced : untraced).push_back(ms); }
};

/// A query class's latency: the mean over its pool of each text's median.
/// Texts of one class differ in cost (a GRAPH query on one segment can
/// cost twice another's), so a median of the pooled samples would jump
/// between those levels as per-text sample counts shift from run to run.
double PoolP50(const std::vector<TextSamples>& pool, bool traced) {
  double sum = 0;
  size_t n = 0;
  for (const TextSamples& t : pool) {
    const std::vector<double>& v = traced ? t.traced : t.untraced;
    if (v.empty()) continue;
    sum += Median(v);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

/// Ops and time one phase ran, summed over rounds.
struct PhaseTally {
  size_t ops = 0;
  int64_t ns = 0;
  void Print(const char* phase) const {
    const double s = Seconds(ns);
    std::printf("%s: %zu ops in %.2f s (%.1f ops/s)\n", phase, ops, s,
                s > 0 ? static_cast<double>(ops) / s : 0.0);
  }
};

/// Brackets one round of a phase: trims the allocator and restarts the
/// peak-RSS mark on entry; on exit records the phase's time and peak RSS.
class TimedRound {
 public:
  TimedRound(PhaseTally* tally, bool trace, Report* report) : tally_(tally) {
    malloc_trim(0);
    // Without a reset, peak_rss_mb would report the set-up's peak.
    report->Check(ResetPeakRss(), "reset peak RSS");
    Tracer::SetEnabled(trace);
    start_ = NowNs();
  }
  ~TimedRound() {
    tally_->ns += NowNs() - start_;
    Tracer::SetEnabled(false);
    g_peak_rss_mb = std::max(g_peak_rss_mb, PeakRssMb());
  }
  TimedRound(const TimedRound&) = delete;
  TimedRound& operator=(const TimedRound&) = delete;

  int64_t Deadline(double seconds) const {
    return start_ + static_cast<int64_t>(seconds * 1e9);
  }

 private:
  PhaseTally* tally_;
  int64_t start_ = 0;
};

/// query_tab: one closed-loop client. Each cycle runs kCheapPerCycle ops
/// of each cheap class and one Fig. 3 graph query in a seeded order, the
/// graph query immediately followed by a flip of its result to page 2. With tracing, alternate passes over
/// the query pools record spans and probe the layers while the others run
/// untraced, so the tracing overhead is measured inside the same run.
class QueryTab {
 public:
  QueryTab(const Options& o, const QueryCorpus& qc, Report* report)
      : o_(o), qc_(qc), g_(*qc.g), report_(report) {
    lat_[kKeyword].resize(qc.keywords.size());
    lat_[kWindow].resize(qc.windows.size());
    lat_[kTerm].resize(qc.terms.size());
    lat_[kGraph].resize(qc.graphs.size());
    lat_[kFlip].resize(qc.graphs.size());
    for (int c = kKeyword; c <= kGraph; ++c) {
      const size_t per_cycle = c == kGraph ? 1 : kCheapPerCycle;
      min_cycles_ = std::max(min_cycles_, (lat_[c].size() + per_cycle - 1) / per_cycle);
    }
    for (int c = kKeyword; c <= kGraph; ++c) {
      order_.insert(order_.end(), c == kGraph ? 1 : kCheapPerCycle, c);
    }
  }

  /// Runs cycles for `seconds`; latencies are recorded times `scale`.
  void Run(double seconds, double scale, Rng* rng) {
    TimedRound round(&tally_, false, report_);
    const int64_t deadline = round.Deadline(seconds);
    const size_t first = cycle_;
    scale_ = scale;
    // Every round visits each pool text at least once.
    while (cycle_ - first < min_cycles_ || NowNs() < deadline) {
      // Whole pool passes alternate, so every text runs traced and untraced.
      const bool traced = o_.trace && (cycle_ / min_cycles_) % 2 == 0;
      Tracer::SetEnabled(traced);
      Shuffle(&order_, rng);
      for (int cls : order_) RunOp(cls, traced);
      ++cycle_;
    }
  }

  void Finish() {
    tally_.Print("query_tab");
    for (int c = 0; c < kClasses; ++c) {
      size_t n = 0;
      for (const TextSamples& t : lat_[c]) n += t.untraced.size();
      std::printf("   %-8s samples=%zu texts=%zu p50=%.4f ms\n", kNames[c], n, lat_[c].size(),
                  PoolP50(lat_[c], false));
    }
    if (!o_.trace) {
      for (int c = 0; c < kClasses; ++c) {
        report_->Add(std::string(kNames[c]) + "_p50_ms", PoolP50(lat_[c], false), "ms");
      }
      return;
    }
    report_->Add("query.parse_ms", Median(parse_ms_), "ms");
    for (int c = kKeyword; c <= kGraph; ++c) {
      report_->Add(std::string("query.") + kNames[c] + ".exec_ms", Median(exec_ms_[c]), "ms");
    }
    std::vector<const ExecutionStats*> stats;
    for (const auto& op : qc_.keywords) stats.push_back(&op.q.stats);
    AddCounts("keyword", stats, qc_.keywords.size());
    stats.clear();
    for (const auto& op : qc_.windows) {
      stats.push_back(&op.interval.stats);
      stats.push_back(&op.region.stats);
    }
    AddCounts("window", stats, qc_.windows.size());
    stats.clear();
    for (const auto& op : qc_.terms) stats.push_back(&op.q.stats);
    AddCounts("term", stats, qc_.terms.size());
    stats.clear();
    for (const auto& op : qc_.graphs) stats.push_back(&op.q.stats);
    AddCounts("graph", stats, qc_.graphs.size());

    report_->Add("annotation.keyword_ms", Median(keyword_ms_), "ms");
    report_->Add("spatial.interval_ms", Median(interval_ms_), "ms");
    report_->Add("spatial.region_ms", Median(region_ms_), "ms");
    report_->Add("ontology.expand_ms", Median(expand_ms_), "ms");
    report_->Add("connect.flip_ms", PoolP50(lat_[kFlip], true), "ms");
    double trees = 0, subgraphs = 0;
    for (const auto& op : qc_.graphs) {
      trees += static_cast<double>(op.trees_built);
      subgraphs += static_cast<double>(op.subgraphs);
    }
    const double graphs = static_cast<double>(qc_.graphs.size());
    report_->Add("connect.trees_built", trees / graphs, "count");
    report_->Add("connect.subgraphs", subgraphs / graphs, "count");
    // Tracing overhead: traced minus untraced cycles, summed over classes.
    double on = 0, off = 0;
    for (int c = 0; c < kClasses; ++c) {
      on += PoolP50(lat_[c], true);
      off += PoolP50(lat_[c], false);
    }
    report_->Add("trace.overhead_pct", off > 0 ? 100.0 * (on - off) / off : 0.0, "%");
  }

 private:
  enum Class { kKeyword, kWindow, kTerm, kGraph, kFlip, kClasses };
  // Ops of each cheap class per graph query: the cheap classes take about
  // a fortieth of a graph query's time each, so they get this many times
  // the graph query's samples.
  static constexpr size_t kCheapPerCycle = 8;
  static constexpr const char* kNames[kClasses] = {"keyword", "window", "term", "graph",
                                                   "flip"};

  double Parse(const std::string& text, uint64_t request) {
    return Timed("query.parse", request,
                 [&] { g_sink += graphitti::query::ParseQuery(text).ok(); });
  }

  void RunOp(int cls, bool traced) {
    const uint64_t request = ++request_;
    ++tally_.ops;
    if (cls == kKeyword) {
      const size_t i = next_[kKeyword]++ % qc_.keywords.size();
      const KeywordOp& op = qc_.keywords[i];
      util::Result<QueryResult> r = util::Status::Internal("unset");
      const double ms = Timed("op.keyword", request, [&] { r = g_.Query(op.q.text); });
      lat_[kKeyword][i].Add(traced, ms * scale_);
      report_->Check(r.ok() && AnswerHash(*r) == op.q.expect, "keyword " + op.word);
      if (!traced) return;
      const double parse = Parse(op.q.text, request);
      parse_ms_.push_back(parse);
      exec_ms_[kKeyword].push_back(ms - parse);
      // CONTAINS runs SearchPhrase: keyword postings, then verification.
      keyword_ms_.push_back(Timed("annotation.keyword", request, [&] {
        g_sink += g_.annotations().SearchPhrase(op.word).size();
      }));
    } else if (cls == kWindow) {
      const size_t i = next_[kWindow]++ % qc_.windows.size();
      const WindowOp& op = qc_.windows[i];
      util::Result<QueryResult> a = util::Status::Internal("unset");
      util::Result<QueryResult> b = util::Status::Internal("unset");
      const double ms = Timed("op.window", request, [&] {
        a = g_.Query(op.interval.text);
        b = g_.Query(op.region.text);
      });
      lat_[kWindow][i].Add(traced, ms * scale_);
      report_->Check(a.ok() && AnswerHash(*a) == op.interval.expect && b.ok() &&
                         AnswerHash(*b) == op.region.expect,
                     "window " + op.interval.text);
      if (!traced) return;
      const double parse = Parse(op.interval.text, request) + Parse(op.region.text, request);
      parse_ms_.push_back(parse / 2);
      exec_ms_[kWindow].push_back(ms - parse);
      interval_ms_.push_back(Timed("spatial.interval", request, [&] {
        g_sink += g_.indexes().QueryIntervals(op.domain, op.window).size();
      }));
      region_ms_.push_back(Timed("spatial.region", request, [&] {
        auto hits = g_.indexes().QueryRegions(op.system, op.rect);
        g_sink += hits.ok() ? hits->size() : 0;
      }));
    } else if (cls == kTerm) {
      const size_t i = next_[kTerm]++ % qc_.terms.size();
      const TermOp& op = qc_.terms[i];
      util::Result<QueryResult> r = util::Status::Internal("unset");
      const double ms = Timed("op.term", request, [&] { r = g_.Query(op.q.text); });
      lat_[kTerm][i].Add(traced, ms * scale_);
      report_->Check(r.ok() && AnswerHash(*r) == op.q.expect, "term " + op.qualified);
      if (!traced) return;
      const double parse = Parse(op.q.text, request);
      parse_ms_.push_back(parse);
      exec_ms_[kTerm].push_back(ms - parse);
      expand_ms_.push_back(Timed("ontology.expand", request,
                                 [&] { g_sink += g_.ExpandTermBelow(op.qualified).size(); }));
    } else {
      const size_t i = next_[kGraph]++ % qc_.graphs.size();
      const GraphOp& op = qc_.graphs[i];
      util::Result<QueryResult> r = util::Status::Internal("unset");
      const double ms = Timed("op.graph", request, [&] { r = g_.Query(op.q.text); });
      lat_[kGraph][i].Add(traced, ms * scale_);
      report_->Check(r.ok() && AnswerHash(*r) == op.q.expect, "graph " + op.q.text);
      if (!r.ok()) return;
      // The flip is its own op: the user pages the result they hold.
      const uint64_t flip_request = ++request_;
      ++tally_.ops;
      util::Status flipped;
      const double flip = Timed("connect.flip", flip_request,
                                [&] { flipped = g_.MaterializePage(&*r, kFlipPage); });
      lat_[kFlip][i].Add(traced, flip * scale_);
      report_->Check(flipped.ok() && PageHash(*r) == op.flip_expect, "flip " + op.q.text);
      if (!traced) return;
      const double parse = Parse(op.q.text, request);
      parse_ms_.push_back(parse);
      exec_ms_[kGraph].push_back(ms - parse);
    }
  }

  /// Executor counts from the set-up answers: the mean per query over the
  /// class's pool, so they are exact for a given seed.
  void AddCounts(const char* cls, const std::vector<const ExecutionStats*>& stats,
                 size_t queries) {
    double cand = 0, rows = 0, peak_rows = 0, peak_bytes = 0, items = 0;
    for (const ExecutionStats* s : stats) {
      for (size_t c : s->candidate_counts) cand += static_cast<double>(c);
      rows += static_cast<double>(s->rows_examined);
      peak_rows += static_cast<double>(s->peak_rows);
      peak_bytes += static_cast<double>(s->peak_bytes);
      items += static_cast<double>(s->items_produced);
    }
    const double q = static_cast<double>(queries);
    const std::string p = std::string("query.") + cls + ".";
    report_->Add(p + "candidates", cand / q, "count");
    report_->Add(p + "rows_examined", rows / q, "count");
    report_->Add(p + "peak_rows", peak_rows / q, "count");
    report_->Add(p + "peak_bytes", peak_bytes / q, "bytes");
    report_->Add(p + "items", items / q, "count");
    report_->Add(p + "useful_ratio", rows > 0 ? items / rows : 0.0, "ratio");
  }

  const Options& o_;
  const QueryCorpus& qc_;
  const Graphitti& g_;  // const: the read-only accessors never mark state dirty
  Report* report_;
  std::vector<TextSamples> lat_[kClasses];
  size_t min_cycles_ = 1;
  std::vector<int> order_;          // one cycle's ops, reshuffled per cycle
  size_t next_[kClasses] = {};      // per class: ops run so far
  std::vector<double> parse_ms_, exec_ms_[kFlip], keyword_ms_, interval_ms_, region_ms_,
      expand_ms_;
  size_t cycle_ = 0;
  uint64_t request_ = 0;
  double scale_ = 1;  // this round's SpeedScale
  PhaseTally tally_;
};

/// churn: two reader threads and one writer on the query-tab engine. A
/// reader op is a keyword query plus an interval-window query; each
/// reader holds its previous results (and so their pinned version) until
/// its next op returns. The writer commits an annotation in a private
/// domain and removes it again, so reader answers never change.
class Churn {
 public:
  Churn(const Options& o, QueryCorpus* qc, Report* report)
      : o_(o), qc_(*qc), g_(*qc->g), report_(report), epoch0_(g_.engine_epoch()) {}

  /// Runs the threads for `seconds`; latencies are recorded times `scale`.
  void Run(double seconds, double scale) {
    std::atomic<bool> stop{false};
    TimedRound round(&tally_, o_.trace, report_);
    auto reader = [&](int id) {
      const Graphitti& view = g_;
      util::Result<QueryResult> held_a = util::Status::Internal("unset");
      util::Result<QueryResult> held_b = util::Status::Internal("unset");
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = next_read_[id]++ * kReaders + static_cast<size_t>(id);
        const KeywordOp& kw = qc_.keywords[i % qc_.keywords.size()];
        const WindowOp& win = qc_.windows[i % qc_.windows.size()];
        util::Result<QueryResult> a = util::Status::Internal("unset");
        util::Result<QueryResult> b = util::Status::Internal("unset");
        reads_[id].push_back(scale * Timed("op.read", 0, [&] {
          a = view.Query(kw.q.text);
          b = view.Query(win.interval.text);
        }));
        report_->Check(a.ok() && AnswerHash(*a) == kw.q.expect && b.ok() &&
                           AnswerHash(*b) == win.interval.expect,
                       "churn read " + kw.word);
        held_a = std::move(a);
        held_b = std::move(b);
      }
    };
    auto writer = [&] {
      // The writer reads back each mutation and keeps its last two views
      // alive, so every mutation's recycle candidate (the version retired
      // by the mutation before) is still pinned: every commit pays the
      // clone path, whatever the readers' timing. Without this the
      // replay/clone mix, and with it the median, would depend on timing.
      std::deque<QueryResult> views;
      auto view = [&](size_t expect_items, AnnotationId expect_id) {
        auto r = g_.Query(kChurnViewQuery);
        const bool ok = r.ok() && r->items.size() == expect_items &&
                        (expect_items == 0 || r->items[0].content_id == expect_id);
        report_->Check(ok, "churn writer view");
        if (!r.ok()) return;
        views.push_back(std::move(r).ValueUnsafe());
        if (views.size() > 2) views.pop_front();
      };
      view(0, 0);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = written_++;
        AnnotationBuilder b;
        b.Title("churn note " + std::to_string(i))
            .Creator("churn-writer")
            .Body("zzchurn scratch remark")
            .MarkInterval("churn:private", static_cast<int64_t>(i % 1000) * 10,
                          static_cast<int64_t>(i % 1000) * 10 + 5);
        util::Result<AnnotationId> id = util::Status::Internal("unset");
        commits_.push_back(scale * Timed("op.commit", 0, [&] { id = g_.Commit(b); }));
        report_->Check(id.ok(), "churn commit");
        versions_max_ = std::max(versions_max_, g_.live_engine_versions());
        if (!id.ok()) continue;
        view(1, *id);
        util::Status removed;
        Timed("op.remove", 0, [&] { removed = g_.RemoveAnnotation(*id); });
        report_->Check(removed.ok(), "churn remove");
        view(0, 0);
        mutations_ += 2;
      }
    };
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
    threads.emplace_back(writer);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }

  void Finish() {
    std::vector<double> reads = reads_[0];
    reads.insert(reads.end(), reads_[1].begin(), reads_[1].end());
    tally_.ops = reads.size() + mutations_;
    tally_.Print("churn");
    std::printf("   read samples=%zu p50=%.4f ms p90=%.4f ms; commit samples=%zu p50=%.4f ms\n",
                reads.size(), Median(reads), Percentile(reads, 90), commits_.size(),
                Median(commits_));
    report_->Check(g_.ValidateIntegrity().ok(), "churn integrity");
    if (!o_.trace) {
      report_->Add("read_p50_ms", Median(reads), "ms");
      return;
    }
    report_->Add("core.clone_commit_ms", Median(commits_), "ms");
    report_->Add("core.pinned_read_p90_ms", Percentile(reads, 90), "ms");
    report_->Add("core.versions_live_max", static_cast<double>(versions_max_), "count");
    report_->Add("core.epochs_per_mutation",
                 mutations_ > 0 ? static_cast<double>(g_.engine_epoch() - epoch0_) /
                                      static_cast<double>(mutations_)
                                : 0.0,
                 "ratio");
  }

 private:
  static constexpr int kReaders = 2;
  const Options& o_;
  const QueryCorpus& qc_;
  Graphitti& g_;
  Report* report_;
  const uint64_t epoch0_;
  // Each thread owns its own slots; read only after the threads join.
  size_t next_read_[kReaders] = {0, 0};
  std::vector<double> reads_[kReaders];
  std::vector<double> commits_;
  size_t written_ = 0, mutations_ = 0, versions_max_ = 0;
  PhaseTally tally_;
};

/// annotate_durable: one closed-loop client on the OpenDurable engine. A
/// cycle is one Commit, one CommitBatch(16) and 17 removes, in a seeded
/// order; every kCheckpointEvery cycles ends with a Checkpoint. Removes
/// take ids from the front of a FIFO queue that starts with the seed
/// corpus ids in a seeded random order and gets each new id at its back.
class Annotate {
 public:
  Annotate(const Options& o, DurableState* ds, CountingEnv* env, Report* report)
      : o_(o), ds_(*ds), env_(env), report_(report) {
    order_ = {kCommit, kBatch};
    order_.insert(order_.end(), kRemovesPerCycle, kRemove);
    if (env_ != nullptr) {
      wal_syncs0_ = env_->counters().wal_syncs.load();
      wal_bytes0_ = env_->counters().wal_bytes.load();
    }
  }

  /// Runs cycles for `seconds`; commit, batch and remove latencies are
  /// recorded times `scale`. Checkpoints write and sync a snapshot file, so
  /// their time is mostly I/O, which does not move with the kernel: they
  /// are recorded as measured.
  void Run(double seconds, double scale) {
    TimedRound round(&tally_, o_.trace, report_);
    const int64_t deadline = round.Deadline(seconds);
    scale_ = scale;
    // The first round always completes the count window (the first
    // checkpoint interval), so per-layer counts cover the same ops in
    // every run.
    const size_t first = cycle_;
    while (cycle_ == first || cycle_ < kCheckpointEvery || NowNs() < deadline) RunCycle();
  }

  void Finish() {
    tally_.Print("annotate_durable");
    std::printf("   WAL sync policy: %s\n",
                o_.group_commit ? "kInterval (group commit, fdatasync at most every 10 ms)"
                                : "kEveryRecord (fdatasync per record)");
    std::printf("   commit samples=%zu p50=%.4f ms; batch samples=%zu; remove samples=%zu; "
                "checkpoints=%zu p50=%.3f ms\n",
                lat_[kCommit].size(), Median(lat_[kCommit]), lat_[kBatch].size(),
                lat_[kRemove].size(), checkpoints_.size(), Median(checkpoints_));
    VerifyReopen();
    if (!o_.trace) {
      report_->Add("commit_p50_ms", Median(lat_[kCommit]), "ms");
      report_->Add("batch_p50_ms", Median(lat_[kBatch]), "ms");
      report_->Add("remove_p50_ms", Median(lat_[kRemove]), "ms");
      report_->Add("checkpoint_ms", Median(checkpoints_), "ms");
      return;
    }
    std::vector<Span> spans = Tracer::Collect();
    const double mutations = static_cast<double>(win_mutations_);
    report_->Add("persist.append_ms", Median(SpanDurationsMs(spans, "persist.append")), "ms");
    report_->Add("persist.sync_ms", Median(SpanDurationsMs(spans, "persist.sync")), "ms");
    report_->Add("persist.syncs_per_commit",
                 mutations > 0 ? static_cast<double>(win_wal_syncs_) / mutations : 0.0, "ratio");
    report_->Add("persist.wal_bytes_per_commit",
                 win_commits_ > 0 ? static_cast<double>(win_commit_wal_bytes_) /
                                        static_cast<double>(win_commits_)
                                  : 0.0,
                 "bytes");
    report_->Add("persist.write_amp",
                 win_user_bytes_ > 0
                     ? static_cast<double>(win_wal_bytes_ + win_snapshot_bytes_) /
                           static_cast<double>(win_user_bytes_)
                     : 0.0,
                 "ratio");
    report_->Add("persist.snapshot_bytes", static_cast<double>(win_snapshot_bytes_), "bytes");
    report_->Add("core.commit_self_ms", Median(commit_self_), "ms");
  }

 private:
  enum Class { kCommit, kBatch, kRemove };

  uint64_t WalBytes() const { return env_ ? env_->counters().wal_bytes.load() : 0; }

  void RunCycle() {
    Graphitti& g = *ds_.g;
    const bool in_window = cycle_ < kCheckpointEvery;
    Shuffle(&order_, &ds_.rng);
    for (int cls : order_) {
      const uint64_t request = ++request_;
      ++tally_.ops;
      if (in_window) ++win_mutations_;
      if (cls == kCommit) {
        size_t user = 0;
        AnnotationBuilder b = DurableBuilder(ds_.next_index++, ds_.n, &ds_.rng, &user);
        const int64_t io0 = env_ ? env_->io_ns() : 0;
        const uint64_t wal0 = WalBytes();
        util::Result<AnnotationId> id = util::Status::Internal("unset");
        const double ms = Timed("op.commit", request, [&] { id = g.Commit(b); });
        lat_[kCommit].push_back(ms * scale_);
        report_->Check(id.ok(), "annotate commit");
        if (!id.ok()) continue;
        ds_.live.insert(*id);
        ds_.remove_queue.push_back(*id);
        if (env_ != nullptr) commit_self_.push_back(ms - NsToMs(env_->io_ns() - io0));
        if (in_window) {
          ++win_commits_;
          win_user_bytes_ += user;
          win_commit_wal_bytes_ += WalBytes() - wal0;
        }
      } else if (cls == kBatch) {
        std::vector<AnnotationBuilder> batch;
        for (size_t k = 0; k < kBatchSize; ++k) {
          size_t user = 0;
          batch.push_back(DurableBuilder(ds_.next_index++, ds_.n, &ds_.rng, &user));
          if (in_window) win_user_bytes_ += user;
        }
        util::Result<std::vector<AnnotationId>> ids = util::Status::Internal("unset");
        lat_[kBatch].push_back(scale_ *
                               Timed("op.batch", request, [&] { ids = g.CommitBatch(batch); }));
        report_->Check(ids.ok() && ids->size() == kBatchSize, "annotate batch");
        if (!ids.ok()) continue;
        for (AnnotationId id : *ids) {
          ds_.live.insert(id);
          ds_.remove_queue.push_back(id);
        }
      } else {
        const AnnotationId id = ds_.remove_queue.front();
        ds_.remove_queue.pop_front();
        util::Status removed;
        lat_[kRemove].push_back(
            scale_ * Timed("op.remove", request, [&] { removed = g.RemoveAnnotation(id); }));
        report_->Check(removed.ok(), "annotate remove");
        if (removed.ok()) ds_.live.erase(id);
      }
    }
    ++cycle_;
    if (cycle_ % kCheckpointEvery != 0) return;
    const bool closes_window = cycle_ == kCheckpointEvery && env_ != nullptr;
    if (closes_window) {
      win_wal_syncs_ = env_->counters().wal_syncs.load() - wal_syncs0_;
      win_wal_bytes_ = WalBytes() - wal_bytes0_;
    }
    const uint64_t snap0 = env_ ? env_->counters().snapshot_bytes.load() : 0;
    util::Status st;
    checkpoints_.push_back(Timed("op.checkpoint", ++request_, [&] { st = g.Checkpoint(); }));
    ++tally_.ops;
    report_->Check(st.ok(), "annotate checkpoint");
    if (closes_window) win_snapshot_bytes_ = env_->counters().snapshot_bytes.load() - snap0;
  }

  /// Durability check: reopen the directory, compare its live ids with
  /// the acknowledged set, then validate cross-store integrity.
  void VerifyReopen() {
    ds_.g.reset();
    auto reopened = Graphitti::OpenDurable(ds_.dir, DurableOptions(o_, nullptr));
    report_->Check(reopened.ok(), "annotate reopen");
    if (!reopened.ok()) return;
    const Graphitti& r = **reopened;
    std::set<AnnotationId> found;
    r.annotations().ForEachAnnotation(
        [&](AnnotationId id, const graphitti::annotation::Annotation&) { found.insert(id); });
    report_->Check(found == ds_.live, "annotate reopened live ids == acknowledged ids");
    report_->Check(r.ValidateIntegrity().ok(), "annotate reopened integrity");
  }

  const Options& o_;
  DurableState& ds_;
  CountingEnv* env_;  // null on untraced runs
  Report* report_;
  std::vector<int> order_;
  std::vector<double> lat_[3], checkpoints_, commit_self_;
  double scale_ = 1;  // this round's SpeedScale
  size_t cycle_ = 0;
  uint64_t request_ = 0;
  PhaseTally tally_;
  // Count window: the first checkpoint interval.
  uint64_t wal_syncs0_ = 0, wal_bytes0_ = 0;
  size_t win_commits_ = 0, win_mutations_ = 0;
  uint64_t win_commit_wal_bytes_ = 0, win_user_bytes_ = 0;
  uint64_t win_wal_syncs_ = 0, win_wal_bytes_ = 0, win_snapshot_bytes_ = 0;
};

/// restart: each op opens the durable directory (deferred hydration) and
/// runs the first keyword query; the engine is closed between ops.
class Restart {
 public:
  Restart(const Options& o, const Setup& s, CountingEnv* env, Report* report)
      : o_(o), s_(s), env_(env), report_(report) {}

  /// Restarts for `seconds`. The first-answer latency, mostly hydration,
  /// is recorded times `scale`; the open, mostly reading the snapshot and
  /// WAL files, as measured.
  void Run(double seconds, double scale) {
    TimedRound round(&tally_, o_.trace, report_);
    const int64_t deadline = round.Deadline(seconds);
    const size_t first = open_ms_.size();
    scale_ = scale;
    for (bool once = true; once || NowNs() < deadline; once = false) RunOnce();
  }

  void Finish() {
    tally_.Print("restart");
    std::printf("   open samples=%zu p50=%.3f ms; first answer p50=%.3f ms\n", open_ms_.size(),
                Median(open_ms_), Median(first_ms_));
    if (!o_.trace) {
      report_->Add("open_ms", Median(open_ms_), "ms");
      report_->Add("first_query_ms", Median(first_ms_), "ms");
      return;
    }
    report_->Add("persist.open_read_bytes", Median(read_bytes_), "bytes");
    report_->Add("persist.open_read_ms", Median(read_ms_), "ms");
    report_->Add("core.hydrate_ms", Median(hydrate_ms_), "ms");
  }

 private:
  void RunOnce() {
    const uint64_t request = ++request_;
    ++tally_.ops;
    const uint64_t rb0 = env_ ? env_->counters().read_bytes.load() : 0;
    const int64_t rns0 = env_ ? env_->counters().read_ns.load() : 0;
    const int64_t t0 = NowNs();
    util::Result<std::unique_ptr<Graphitti>> g = util::Status::Internal("unset");
    {
      ScopedSpan span("op.open", request);
      g = Graphitti::OpenDurable(s_.restart_dir, DurableOptions(o_, env_));
    }
    const int64_t t1 = NowNs();
    report_->Check(g.ok(), "restart open");
    if (!g.ok()) return;
    util::Result<QueryResult> r = util::Status::Internal("unset");
    {
      ScopedSpan span("op.first_query", request);
      r = (*g)->Query(kFirstQuery);
    }
    const int64_t t2 = NowNs();
    open_ms_.push_back(NsToMs(t1 - t0));
    first_ms_.push_back(scale_ * NsToMs(t2 - t0));
    report_->Check(r.ok() && AnswerHash(*r) == s_.restart_expect, "restart first answer");
    if (env_ == nullptr) return;
    read_bytes_.push_back(static_cast<double>(env_->counters().read_bytes.load() - rb0));
    read_ms_.push_back(NsToMs(env_->counters().read_ns.load() - rns0));
    // Hydration: the first answer minus a repeat of the same query.
    const int64_t t3 = NowNs();
    {
      ScopedSpan span("query.repeat", request);
      g_sink += (*g)->Query(kFirstQuery).ok();
    }
    hydrate_ms_.push_back(NsToMs((t2 - t1) - (NowNs() - t3)));
  }

  const Options& o_;
  const Setup& s_;
  CountingEnv* env_;  // null on untraced runs
  Report* report_;
  std::vector<double> open_ms_, first_ms_, hydrate_ms_, read_ms_, read_bytes_;
  double scale_ = 1;  // this round's SpeedScale
  uint64_t request_ = 0;
  PhaseTally tally_;
};

}  // namespace

void RunBenchmark(const Options& o, Report* report) {
  std::error_code ec;
  fs::create_directories(o.work_dir, ec);
  // The traced run counts the persist layer through this env; the
  // untraced run uses the real filesystem directly.
  std::unique_ptr<CountingEnv> env;
  if (o.trace) env = std::make_unique<CountingEnv>(persist::Env::Default());

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();  // the previous set-up's engines go first
    auto next = std::make_unique<Setup>();
    const int64_t t0 = NowNs();
    const bool ok = BuildSetup(o, env.get(), next.get());
    setup_s.push_back(Seconds(NowNs() - t0));
    report->Check(ok, "set-up");
    if (!ok) return;
    setup = std::move(next);
  }
  std::printf("setup: %d runs, median %.3f s\n", kSetupRepeats, Median(setup_s));
  AnchorQueryCorpus(setup->query, report);

  // The phases take turns in short rounds, so a slow stretch of the
  // machine lands on every phase rather than on whichever ran then.
  const int rounds =
      std::clamp(static_cast<int>(std::lround(o.seconds / kRoundSeconds)), 1, kMaxRounds);
  const double round_s = o.seconds / rounds;
  Rng order_rng(o.seed * 0xA24BAED4963EE407ULL + 11);
  QueryTab query_tab(o, setup->query, report);
  Churn churn(o, &setup->query, report);
  Annotate annotate(o, &setup->durable, env.get(), report);
  Restart restart(o, *setup, env.get(), report);
  std::vector<double> ref_kernel;
  // The reference kernel runs right before every phase of every round;
  // the untraced run scales that phase's latencies by its reading.
  auto probe = [&] {
    ref_kernel.push_back(RefKernelMs());
    return o.trace ? 1.0 : SpeedScale(ref_kernel.back());
  };
  for (int r = 0; r < rounds; ++r) {
    query_tab.Run(round_s * kQueryTabShare, probe(), &order_rng);
    churn.Run(round_s * kChurnShare, probe());
    annotate.Run(round_s * kAnnotateShare, probe());
    restart.Run(round_s * kRestartShare, probe());
    const double* k = &ref_kernel[ref_kernel.size() - 4];
    std::printf("round %d/%d: machine.ref_kernel_ms before each phase = %.3f %.3f %.3f %.3f\n",
                r + 1, rounds, k[0], k[1], k[2], k[3]);
    std::fflush(stdout);
  }
  ref_kernel.push_back(RefKernelMs());
  std::printf("machine.ref_kernel_ms after the last round = %.3f\n", ref_kernel.back());

  query_tab.Finish();
  churn.Finish();
  annotate.Finish();
  restart.Finish();
  if (o.trace) {
    report->Add("machine.ref_kernel_ms", Median(ref_kernel), "ms");
    if (!o.trace_out.empty() && !Tracer::WriteChromeJson(o.trace_out)) {
      report->Check(false, "write trace " + o.trace_out);
    }
  } else {
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", g_peak_rss_mb, "MiB");
  }
  setup.reset();
  fs::remove_all(o.work_dir, ec);
}

}  // namespace e2e
