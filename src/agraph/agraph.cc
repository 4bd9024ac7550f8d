#include "agraph/agraph.h"

#include <algorithm>

namespace graphitti {
namespace agraph {

util::TraversalScratch& AGraph::Scratch() {
  // One scratch per thread: concurrent queries on const AGraphs stay safe,
  // and sequential queries (also across different graphs — stale stamps
  // never match a fresh epoch) allocate nothing in steady state.
  // thread_local, so no capability annotation: unreachable from other
  // threads, outside the checked locking discipline by construction.
  thread_local util::TraversalScratch scratch;
  return scratch;
}

uint32_t AGraph::FindLabelId(std::string_view label) const {
  auto it = label_index_.find(label);
  return it == label_index_.end() ? kNoIndex : it->second;
}

bool AGraph::BuildAllowedBitset(const std::vector<std::string>& allowed_labels,
                                util::LabelBitset* allowed, bool* has_filter) const {
  *has_filter = !allowed_labels.empty();
  if (!*has_filter) return true;
  allowed->Reset(labels_.size());
  bool any = false;
  for (const std::string& l : allowed_labels) {
    uint32_t id = FindLabelId(l);
    if (id != kNoIndex) {
      allowed->Set(id);
      any = true;
    }
  }
  return any;
}

uint32_t AGraph::BidirectionalSearch(util::TraversalScratch* s, bool directed,
                                     size_t max_hops, bool has_filter,
                                     size_t* length) const {
  util::BfsSide& fwd = s->fwd;
  util::BfsSide& bwd = s->bwd;
  size_t best_len = SIZE_MAX;
  uint32_t best_meet = kNoIndex;
  size_t df = 0, db = 0;  // levels fully expanded per side

  // Expands `self` by one BFS level. A meet is scored whenever an edge
  // touches a node visited by the other side; BFS distances are exact at
  // discovery, so the running minimum is exact once best_len <= df + db
  // (any shorter path would already have produced a meet at the node
  // sitting `df` hops along it).
  auto expand = [&](util::BfsSide& self, const util::BfsSide& other,
                    bool forward_side) {
    self.next.clear();
    for (uint32_t cur : self.frontier) {
      const uint32_t next_dist = self.nodes[cur].dist + 1;
      auto relax = [&](const Edge& e, bool along_path) {
        if (has_filter && !s->allowed.Test(e.label)) return;
        uint32_t u = e.other;
        util::BfsNode& nu = self.nodes[u];
        if (nu.stamp != self.epoch) {
          nu = {self.epoch, cur, next_dist, e.label,
                static_cast<uint8_t>(along_path ? 1 : 0)};
          self.next.push_back(u);
        }
        const util::BfsNode& ou = other.nodes[u];
        if (ou.stamp == other.epoch) {
          size_t cand = static_cast<size_t>(nu.dist) + ou.dist;
          if (cand < best_len) {
            best_len = cand;
            best_meet = u;
          }
        }
      };
      if (forward_side) {
        for (const Edge& e : out_[cur]) relax(e, true);
        if (!directed) {
          for (const Edge& e : in_[cur]) relax(e, false);
        }
      } else {
        // Backward side walks edges against their direction; along_path
        // means the stored edge runs node -> parent (toward the seeds).
        for (const Edge& e : in_[cur]) relax(e, true);
        if (!directed) {
          for (const Edge& e : out_[cur]) relax(e, false);
        }
      }
    }
    std::swap(self.frontier, self.next);
  };

  // Seeds shared by both sides meet at distance 0.
  for (uint32_t seed : fwd.frontier) {
    if (bwd.Visited(seed)) {
      *length = 0;
      return seed;
    }
  }

  while (!fwd.frontier.empty() && !bwd.frontier.empty()) {
    if (best_len <= df + db) break;  // proven minimal
    if (df + db >= max_hops) break;  // hop budget exhausted
    if (fwd.frontier.size() <= bwd.frontier.size()) {
      expand(fwd, bwd, /*forward_side=*/true);
      ++df;
    } else {
      expand(bwd, fwd, /*forward_side=*/false);
      ++db;
    }
  }
  // When a side exhausts its reachable set, its distances are final, so the
  // recorded best (a meet at the other side's seed, if connected) is exact.
  if (best_meet == kNoIndex || best_len > max_hops) return kNoIndex;
  *length = best_len;
  return best_meet;
}

std::string_view NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kContent:
      return "content";
    case NodeKind::kReferent:
      return "referent";
    case NodeKind::kOntologyTerm:
      return "term";
    case NodeKind::kDataObject:
      return "object";
  }
  return "?";
}

bool SubGraph::ContainsNode(const NodeRef& ref) const {
  return std::find(nodes.begin(), nodes.end(), ref) != nodes.end();
}

uint32_t AGraph::InternLabel(std::string_view label) {
  auto it = label_index_.find(label);
  if (it != label_index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(labels_.size());
  labels_.emplace_back(label);
  label_index_.emplace(std::string(label), id);
  return id;
}

util::Result<uint32_t> AGraph::DenseIndex(NodeRef ref) const {
  auto it = index_.find(ref);
  if (it == index_.end()) {
    return util::Status::NotFound("node " + ref.ToString() + " not in a-graph");
  }
  return it->second;
}

void AGraph::Reserve(size_t additional_nodes) {
  // The three dense arrays grow in lockstep, so refs_ speaks for all of them.
  const size_t needed = refs_.size() + additional_nodes;
  if (needed <= refs_.capacity()) return;
  const size_t target = std::max(needed, 2 * refs_.capacity());
  refs_.reserve(target);
  out_.reserve(target);
  in_.reserve(target);
  // unordered_map::reserve may also shrink the bucket array (libstdc++
  // rehashes to the smallest prime that fits), so only ever grow it.
  if (static_cast<float>(target) > index_.bucket_count() * index_.max_load_factor()) {
    index_.reserve(target);
  }
}

uint32_t AGraph::InsertNodeUnchecked(NodeRef ref) {
  uint32_t idx = static_cast<uint32_t>(refs_.size());
  index_.emplace(ref, idx);
  refs_.push_back(ref);
  out_.emplace_back();
  in_.emplace_back();
  return idx;
}

util::Status AGraph::AddNode(NodeRef ref) {
  if (index_.find(ref) != index_.end()) {
    return util::Status::AlreadyExists("node " + ref.ToString() + " already in a-graph");
  }
  InsertNodeUnchecked(ref);
  return util::Status::OK();
}

void AGraph::EnsureNode(NodeRef ref) { (void)EnsureNodeIndex(ref); }

uint32_t AGraph::EnsureNodeIndex(NodeRef ref) {
  auto it = index_.find(ref);
  if (it != index_.end()) return it->second;
  return InsertNodeUnchecked(ref);
}

void AGraph::AddEdgeIndexed(uint32_t from, uint32_t to, uint32_t label_id) {
  out_[from].push_back({to, label_id});
  in_[to].push_back({from, label_id});
  ++num_edges_;
}

util::Status AGraph::RemoveNode(NodeRef ref) {
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t idx, DenseIndex(ref));
  // Drop incident edges from neighbours' adjacency.
  for (const Edge& e : out_[idx]) {
    auto& vec = in_[e.other];
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](const Edge& x) { return x.other == idx; }),
              vec.end());
  }
  for (const Edge& e : in_[idx]) {
    auto& vec = out_[e.other];
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](const Edge& x) { return x.other == idx; }),
              vec.end());
  }
  num_edges_ -= out_[idx].size() + in_[idx].size();
  out_[idx].clear();
  in_[idx].clear();
  // Swap-with-last compaction to keep dense indexes dense.
  uint32_t last = static_cast<uint32_t>(refs_.size()) - 1;
  if (idx != last) {
    // Rewire references to `last` as `idx`.
    for (const Edge& e : out_[last]) {
      for (Edge& x : in_[e.other]) {
        if (x.other == last) x.other = idx;
      }
    }
    for (const Edge& e : in_[last]) {
      for (Edge& x : out_[e.other]) {
        if (x.other == last) x.other = idx;
      }
    }
    refs_[idx] = refs_[last];
    out_[idx] = std::move(out_[last]);
    in_[idx] = std::move(in_[last]);
    index_[refs_[idx]] = idx;
  }
  refs_.pop_back();
  out_.pop_back();
  in_.pop_back();
  index_.erase(ref);
  return util::Status::OK();
}

util::Status AGraph::AddEdge(NodeRef from, NodeRef to, std::string_view label) {
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t fi, DenseIndex(from));
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t ti, DenseIndex(to));
  uint32_t li = InternLabel(label);
  out_[fi].push_back({ti, li});
  in_[ti].push_back({fi, li});
  ++num_edges_;
  return util::Status::OK();
}

bool AGraph::HasEdge(NodeRef from, NodeRef to, std::string_view label) const {
  auto fi = DenseIndex(from);
  auto ti = DenseIndex(to);
  if (!fi.ok() || !ti.ok()) return false;
  auto lit = label_index_.find(label);
  if (lit == label_index_.end()) return false;
  for (const Edge& e : out_[*fi]) {
    if (e.other == *ti && e.label == lit->second) return true;
  }
  return false;
}

std::vector<EdgeRecord> AGraph::OutEdges(NodeRef ref) const {
  std::vector<EdgeRecord> out;
  auto idx = DenseIndex(ref);
  if (!idx.ok()) return out;
  for (const Edge& e : out_[*idx]) {
    out.push_back({ref, refs_[e.other], labels_[e.label]});
  }
  return out;
}

std::vector<EdgeRecord> AGraph::InEdges(NodeRef ref) const {
  std::vector<EdgeRecord> out;
  auto idx = DenseIndex(ref);
  if (!idx.ok()) return out;
  for (const Edge& e : in_[*idx]) {
    out.push_back({refs_[e.other], ref, labels_[e.label]});
  }
  return out;
}

std::vector<NodeRef> AGraph::Neighbors(NodeRef ref, bool directed,
                                       std::string_view label) const {
  std::vector<NodeRef> out;
  AppendNeighbors(ref, directed, label, &out);
  std::sort(out.begin(), out.end());
  return out;
}

void AGraph::AppendNeighbors(NodeRef ref, bool directed, std::string_view label,
                             std::vector<NodeRef>* out) const {
  auto idx = DenseIndex(ref);
  if (!idx.ok()) return;
  uint32_t li = kNoIndex;
  if (!label.empty()) {
    li = FindLabelId(label);
    if (li == kNoIndex) return;  // label never interned: no edge carries it
  }
  util::TraversalScratch& s = Scratch();
  s.set_a.Begin(refs_.size());
  auto take = [&](const Edge& e) {
    if ((li == kNoIndex || e.label == li) && s.set_a.Insert(e.other)) {
      out->push_back(refs_[e.other]);
    }
  };
  for (const Edge& e : out_[*idx]) take(e);
  if (!directed) {
    for (const Edge& e : in_[*idx]) take(e);
  }
}

std::vector<NodeRef> AGraph::NodesOfKind(NodeKind kind) const {
  std::vector<NodeRef> out;
  ForEachNodeOfKind(kind, [&](NodeRef ref) { out.push_back(ref); });
  std::sort(out.begin(), out.end());
  return out;
}

void AGraph::ForEachNodeOfKind(NodeKind kind,
                               const std::function<void(NodeRef)>& fn) const {
  for (const NodeRef& ref : refs_) {
    if (ref.kind == kind) fn(ref);
  }
}

size_t AGraph::CountNodesOfKind(NodeKind kind) const {
  size_t n = 0;
  for (const NodeRef& ref : refs_) {
    if (ref.kind == kind) ++n;
  }
  return n;
}

void AGraph::ForEachNode(const std::function<void(NodeRef)>& fn) const {
  for (const NodeRef& ref : refs_) fn(ref);
}

void AGraph::ForEachEdge(const std::function<void(const EdgeRecord&)>& fn) const {
  for (size_t i = 0; i < refs_.size(); ++i) {
    for (const Edge& e : out_[i]) {
      fn({refs_[i], refs_[e.other], labels_[e.label]});
    }
  }
}

util::Result<Path> AGraph::FindPath(NodeRef from, NodeRef to,
                                    const PathOptions& options) const {
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t src, DenseIndex(from));
  GRAPHITTI_ASSIGN_OR_RETURN(uint32_t dst, DenseIndex(to));

  if (src == dst) {
    Path p;
    p.nodes = {from};
    return p;
  }

  util::TraversalScratch& s = Scratch();
  bool has_filter = false;
  if (!BuildAllowedBitset(options.allowed_labels, &s.allowed, &has_filter)) {
    return util::Status::NotFound("no edges carry any of the allowed labels");
  }

  s.fwd.Prepare(refs_.size());
  s.bwd.Prepare(refs_.size());
  s.fwd.Seed(src);
  s.bwd.Seed(dst);
  size_t length = 0;
  uint32_t meet =
      BidirectionalSearch(&s, options.directed, options.max_hops, has_filter, &length);
  if (meet == kNoIndex) {
    return util::Status::NotFound("no path from " + from.ToString() + " to " +
                                  to.ToString());
  }

  // Stitch src..meet (forward parents, reversed) to meet..dst (backward
  // parents lead toward dst).
  Path path;
  path.nodes.reserve(length + 1);
  path.edge_labels.reserve(length);
  uint32_t cur = meet;
  while (s.fwd.nodes[cur].parent != cur) {
    path.nodes.push_back(refs_[cur]);
    path.edge_labels.push_back(labels_[s.fwd.nodes[cur].parent_label]);
    cur = s.fwd.nodes[cur].parent;
  }
  path.nodes.push_back(refs_[cur]);  // src
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edge_labels.begin(), path.edge_labels.end());
  cur = meet;
  while (s.bwd.nodes[cur].parent != cur) {
    uint32_t nxt = s.bwd.nodes[cur].parent;
    path.edge_labels.push_back(labels_[s.bwd.nodes[cur].parent_label]);
    path.nodes.push_back(refs_[nxt]);
    cur = nxt;
  }
  return path;
}

void AGraph::AppendReachable(NodeRef from, const PathOptions& options,
                             std::vector<NodeRef>* out) const {
  auto idx = DenseIndex(from);
  if (!idx.ok()) return;  // unknown node: nothing is reachable
  util::TraversalScratch& s = Scratch();
  bool has_filter = false;
  bool any_label = BuildAllowedBitset(options.allowed_labels, &s.allowed, &has_filter);
  out->push_back(from);  // distance 0: FindPath(x, x) trivially succeeds
  if (!any_label) return;  // label filter matches no interned label
  s.fwd.Prepare(refs_.size());
  s.fwd.Seed(*idx);
  size_t depth = 0;
  while (!s.fwd.frontier.empty() && depth < options.max_hops) {
    s.fwd.next.clear();
    for (uint32_t cur : s.fwd.frontier) {
      const uint32_t next_dist = s.fwd.nodes[cur].dist + 1;
      auto relax = [&](const Edge& e) {
        if (has_filter && !s.allowed.Test(e.label)) return;
        util::BfsNode& nu = s.fwd.nodes[e.other];
        if (nu.stamp != s.fwd.epoch) {
          nu = {s.fwd.epoch, cur, next_dist, e.label, 1};
          s.fwd.next.push_back(e.other);
          out->push_back(refs_[e.other]);
        }
      };
      for (const Edge& e : out_[cur]) relax(e);
      if (!options.directed) {
        for (const Edge& e : in_[cur]) relax(e);
      }
    }
    std::swap(s.fwd.frontier, s.fwd.next);
    ++depth;
  }
}

std::vector<NodeRef> AGraph::IndirectlyRelatedContents(NodeRef content) const {
  std::vector<NodeRef> out;
  if (content.kind != NodeKind::kContent) return out;
  auto idx = DenseIndex(content);
  if (!idx.ok()) return out;

  util::TraversalScratch& s = Scratch();
  s.set_a.Begin(refs_.size());  // referents already expanded
  s.set_b.Begin(refs_.size());  // contents already emitted (incl. self)
  s.set_b.Insert(*idx);

  auto expand_referent = [&](uint32_t r) {
    if (refs_[r].kind != NodeKind::kReferent || !s.set_a.Insert(r)) return;
    for (const Edge& e : out_[r]) {
      if (refs_[e.other].kind == NodeKind::kContent && s.set_b.Insert(e.other)) {
        out.push_back(refs_[e.other]);
      }
    }
    for (const Edge& e : in_[r]) {
      if (refs_[e.other].kind == NodeKind::kContent && s.set_b.Insert(e.other)) {
        out.push_back(refs_[e.other]);
      }
    }
  };
  for (const Edge& e : out_[*idx]) expand_referent(e.other);
  for (const Edge& e : in_[*idx]) expand_referent(e.other);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace agraph
}  // namespace graphitti
