#include "net/graph_topology.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "net/graph_search.hpp"
#include "sim/time.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/text_file.hpp"

namespace diva::net {

// ---------------------------------------------------------------------------
// GraphAdjacency — validation + packed direction slots
// ---------------------------------------------------------------------------

GraphAdjacency::GraphAdjacency(const GraphSpec& spec) {
  const int n = spec.numNodes;
  DIVA_CHECK_MSG(n >= 1 && n <= kMaxGraphNodes,
                 "graph '" << spec.name << "': node count must be in [1, "
                           << kMaxGraphNodes << "] (got " << n << ")");
  numNodes = n;
  struct Nbr {
    NodeId to;
    double weight;
    double latency;
    bool operator<(const Nbr& o) const { return to < o.to; }
  };
  std::vector<std::vector<Nbr>> nbrs(static_cast<std::size_t>(n));
  for (const GraphSpec::Edge& e : spec.edges) {
    DIVA_CHECK_MSG(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                   "graph '" << spec.name << "': edge " << e.u << "-" << e.v
                             << " out of range for " << n << " nodes");
    DIVA_CHECK_MSG(e.u != e.v,
                   "graph '" << spec.name << "': self-loop at node " << e.u);
    DIVA_CHECK_MSG(e.weight > 0.0, "graph '" << spec.name << "': edge " << e.u << "-"
                                             << e.v << " has non-positive weight "
                                             << e.weight);
    DIVA_CHECK_MSG(e.latency > 0.0, "graph '" << spec.name << "': edge " << e.u << "-"
                                              << e.v << " has non-positive latency "
                                              << e.latency);
    nbrs[e.u].push_back(Nbr{e.v, e.weight, e.latency});
    nbrs[e.v].push_back(Nbr{e.u, e.weight, e.latency});
  }

  // Equal weights let searches run in BFS level order
  // (net/graph_search.hpp). Level k's distance is k < n additions of w:
  // finite while 2·n·w stays below the largest double, and each addition
  // raises it, since w is far above half an ulp of k·w for k < 2^52.
  const double w = spec.edges.empty() ? 1.0 : spec.edges.front().weight;
  const bool equal = std::all_of(spec.edges.begin(), spec.edges.end(),
                                 [&](const GraphSpec::Edge& e) { return e.weight == w; });
  uniformWeight = equal && w <= std::numeric_limits<double>::max() / (2.0 * n) ? w : 0.0;

  degree = 0;
  for (int u = 0; u < n; ++u) {
    auto& list = nbrs[u];
    // Direction slots order neighbors by id — the deterministic numbering
    // the routing tie-breaks and the bisection's BFS both rely on.
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      DIVA_CHECK_MSG(list[i].to != list[i - 1].to,
                     "graph '" << spec.name << "': duplicate edge " << u << "-"
                               << list[i].to);
    }
    degree = std::max(degree, static_cast<int>(list.size()));
  }

  // Every node is padded to the maximum degree, so a hub makes the slot
  // arrays n × degree long: refuse before allocating them.
  const auto slots = static_cast<std::int64_t>(n) * degree;
  DIVA_CHECK_MSG(slots <= kMaxAdjacencySlots,
                 "graph '" << spec.name << "': " << n << " nodes padded to max degree "
                           << degree << " need " << slots
                           << " direction slots, above the budget of " << kMaxAdjacencySlots);
  adj.assign(static_cast<std::size_t>(n) * degree, -1);
  weightOfSlot.assign(static_cast<std::size_t>(n) * degree, 1.0);
  latencyOfSlot.assign(static_cast<std::size_t>(n) * degree, 1.0);
  for (int u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < nbrs[u].size(); ++i) {
      adj[static_cast<std::size_t>(u) * degree + i] = nbrs[u][i].to;
      weightOfSlot[static_cast<std::size_t>(u) * degree + i] = nbrs[u][i].weight;
      latencyOfSlot[static_cast<std::size_t>(u) * degree + i] = nbrs[u][i].latency;
    }
  }
}

// ---------------------------------------------------------------------------
// GraphTopology — validation, adjacency, routing table
// ---------------------------------------------------------------------------

GraphTopology::GraphTopology(std::shared_ptr<const GraphSpec> spec) : spec_(std::move(spec)) {
  DIVA_CHECK_MSG(spec_ != nullptr, "GraphTopology requires a GraphSpec");
  DIVA_CHECK_MSG(spec_->numNodes >= 1 && spec_->numNodes <= kMaxNodes,
                 "graph '" << spec_->name << "': node count must be in [1, " << kMaxNodes
                           << "] (got " << spec_->numNodes << ")");
  numNodes_ = spec_->numNodes;
  adj_ = GraphAdjacency(*spec_);
  buildRoutingTable();
}

void GraphTopology::buildRoutingTable() {
  const int n = numNodes_;
  nextDir_.assign(static_cast<std::size_t>(n) * n, -1);
  // One deterministic Dijkstra per destination t fills column t of the
  // table: nextDir_[s][t] is s's direction toward its parent in the
  // shortest-path tree rooted at t. Columns are independent, so workers
  // take them in blocks of kColumnBlock, which keeps most of each
  // worker's row writes on cache lines no other worker touches; each
  // worker has its own search scratch, and the table is the serial
  // loop's at any worker count.
  constexpr std::size_t kColumnBlock = 32;
  const std::size_t blocks = (static_cast<std::size_t>(n) + kColumnBlock - 1) / kColumnBlock;
  support::parallelFor(
      support::hardwareWorkers(), blocks, [&] { return GraphSearch(adj_); },
      [&](GraphSearch& search, std::size_t block) {
        const auto end = static_cast<NodeId>(
            std::min(static_cast<std::size_t>(n), (block + 1) * kColumnBlock));
        for (auto t = static_cast<NodeId>(block * kColumnBlock); t < end; ++t) {
          search.shortestPaths(t, nullptr, [](NodeId) { return true; });
          for (NodeId s = 0; s < n; ++s) {
            if (s != t && search.reached(s)) {
              nextDir_[static_cast<std::size_t>(s) * n + t] =
                  static_cast<std::int16_t>(adj_.dirTo(s, search.parent(s)));
              continue;
            }
            // Elastic machines keep retired nodes as edgeless entries
            // (GraphSpec::allowIsolated); only the non-isolated nodes must
            // form one connected component.
            const bool exempt = spec_->allowIsolated && (adj_.isolated(s) || adj_.isolated(t));
            DIVA_CHECK_MSG(s == t || exempt,
                           "graph '" << spec_->name << "' is not connected (node " << s
                                     << " cannot reach node " << t << ")");
          }
        }
      });
}

double GraphTopology::weightedDistance(NodeId a, NodeId b) const {
  double sum = 0.0;
  NodeId cur = a;
  while (cur != b) {
    const int dir = dirToward(cur, b);
    sum += adj_.weightOf(cur, dir);
    cur = neighborInDir(cur, dir);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// BFS-grown balanced bisection and graph decomposition
// ---------------------------------------------------------------------------

void bisectBfs(GraphSearch& search, const std::vector<NodeId>& cluster, std::vector<NodeId>& a,
               std::vector<NodeId>& b) {
  DIVA_CHECK(cluster.size() >= 2);
  const std::size_t target = (cluster.size() + 1) / 2;
  // Seed: a peripheral node, so the grown half is compact, not ring-shaped.
  search.sweep(cluster);
  const NodeId seed = search.farthest(cluster.front());

  // Grow half the cluster breadth-first from the seed; a disconnected
  // remainder restarts from its lowest id so every node is placed.
  a.clear();
  b.clear();
  const auto take = [&](NodeId u) {
    a.push_back(u);
    return a.size() < target;
  };
  search.sweep(cluster);
  search.bfs(seed, take);
  for (std::size_t i = 0; a.size() < target; ++i)
    if (!search.reached(cluster[i])) search.bfs(cluster[i], take);
  std::sort(a.begin(), a.end());
  for (NodeId p : cluster) {
    if (!std::binary_search(a.begin(), a.end(), p)) b.push_back(p);
  }
}

std::unique_ptr<GraphClusterTree> decomposeGraph(const GraphAdjacency& g, DecompParams params) {
  std::vector<NodeId> attached;
  attached.reserve(static_cast<std::size_t>(g.numNodes));
  for (NodeId p = 0; p < g.numNodes; ++p)
    if (!g.isolated(p)) attached.push_back(p);
  if (attached.empty())
    for (NodeId p = 0; p < g.numNodes; ++p) attached.push_back(p);  // single-node machines
  GraphSearch search(g);
  auto tree = std::make_unique<GraphClusterTree>(
      GraphShape{}, std::move(attached), g.numNodes, params,
      [&](const std::vector<NodeId>& c, std::vector<NodeId>& a, std::vector<NodeId>& b) {
        bisectBfs(search, c, a, b);
      });
  // The Regular embedding locates a host by its index in each member list.
  for (int i = 0; i < tree->numNodes(); ++i) {
    const std::vector<NodeId>& c = tree->cluster(i);
    DIVA_CHECK_MSG(std::adjacent_find(c.begin(), c.end(), std::greater_equal<>()) == c.end(),
                   "graph cluster " << i << " is not strictly ascending");
  }
  return tree;
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

GraphSpec ringGraph(int n) {
  DIVA_CHECK_MSG(n >= 1, "ring size must be positive (got " << n << ")");
  GraphSpec g;
  g.name = "ring" + std::to_string(n);
  g.numNodes = n;
  if (n == 2) {
    g.edges.push_back({0, 1, 1.0});
  } else if (n > 2) {
    for (NodeId i = 0; i < n; ++i)
      g.edges.push_back({i, static_cast<NodeId>((i + 1) % n), 1.0});
  }
  return g;
}

GraphSpec starGraph(int n) {
  DIVA_CHECK_MSG(n >= 1, "star size must be positive (got " << n << ")");
  GraphSpec g;
  g.name = "star" + std::to_string(n);
  g.numNodes = n;
  for (NodeId i = 1; i < n; ++i) g.edges.push_back({0, i, 1.0});
  return g;
}

GraphSpec fatTreeGraph(int arity, int levels) {
  DIVA_CHECK_MSG(arity >= 2, "fat tree arity must be >= 2 (got " << arity << ")");
  DIVA_CHECK_MSG(levels >= 1 && levels <= 16,
                 "fat tree levels must be in [1, 16] (got " << levels << ")");
  GraphSpec g;
  g.name = "fattree" + std::to_string(arity) + "x" + std::to_string(levels);
  std::int64_t count = 0, levelSize = 1;
  for (int d = 0; d < levels; ++d, levelSize *= arity) {
    count += levelSize;
    DIVA_CHECK_MSG(count <= kMaxGraphNodes,
                   "fat tree exceeds " << kMaxGraphNodes << " nodes");
  }
  g.numNodes = static_cast<int>(count);
  // Level d starts at offset (arity^d - 1)/(arity - 1); the link into a
  // depth-(d+1) child halves in cost per level toward the root (root
  // links are the "fat" ones).
  std::int64_t offset = 0;
  levelSize = 1;
  for (int d = 0; d + 1 < levels; ++d) {
    const std::int64_t childOffset = offset + levelSize;
    const double weight = 1.0 / static_cast<double>(1 << (levels - 2 - d));
    for (std::int64_t i = 0; i < levelSize; ++i) {
      for (int c = 0; c < arity; ++c) {
        g.edges.push_back({static_cast<NodeId>(offset + i),
                           static_cast<NodeId>(childOffset + i * arity + c), weight});
      }
    }
    offset = childOffset;
    levelSize *= arity;
  }
  return g;
}

GraphSpec randomRegularGraph(int n, int d, std::uint64_t seed) {
  DIVA_CHECK_MSG(n >= 1 && n <= kMaxGraphNodes,
                 "random regular graph: n must be in [1, " << kMaxGraphNodes
                                                           << "] (got " << n << ")");
  DIVA_CHECK_MSG(d >= 0 && d < n, "random regular graph: need 0 <= d < n (got d=" << d
                                                                                  << ", n=" << n << ")");
  DIVA_CHECK_MSG((static_cast<std::int64_t>(n) * d) % 2 == 0,
                 "random regular graph: n*d must be even");
  DIVA_CHECK_MSG(d >= 2 || n <= 2, "random regular graph: d < 2 cannot be connected");

  GraphSpec g;
  g.name = "rr" + std::to_string(n) + "d" + std::to_string(d) + "s" + std::to_string(seed);
  g.numNodes = n;
  if (n <= 1 || d == 0) return g;

  // Pairing model: shuffle the n·d stubs, pair them off, reject pairings
  // with self-loops, duplicate edges, or a disconnected result, and retry
  // with a derived seed. Deterministic for a given seed.
  const std::size_t stubCount = static_cast<std::size_t>(n) * d;
  std::vector<NodeId> stubs(stubCount);
  // Edge membership is a hash set keyed on the packed (u, v) pair — a
  // dense n×n byte table would cost O(n²) memory (10 GB at 100k nodes)
  // for the same answer. The RNG draw sequence is untouched, so graphs
  // for a given seed are identical to the dense-scratch era.
  std::unordered_set<std::uint64_t> used(stubCount * 2);
  std::vector<std::vector<NodeId>> nbrs(static_cast<std::size_t>(n));
  std::vector<char> reached(static_cast<std::size_t>(n));
  for (int attempt = 0; attempt < 10'000; ++attempt) {
    support::SplitMix64 rng(
        support::hashCombine(seed, static_cast<std::uint64_t>(attempt)));
    for (std::size_t i = 0; i < stubCount; ++i)
      stubs[i] = static_cast<NodeId>(i / static_cast<std::size_t>(d));
    for (std::size_t i = stubCount - 1; i > 0; --i)
      std::swap(stubs[i], stubs[rng.below(i + 1)]);

    used.clear();
    g.edges.clear();
    bool ok = true;
    for (std::size_t i = 0; i < stubCount; i += 2) {
      NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v) {
        ok = false;
        break;
      }
      if (u > v) std::swap(u, v);
      if (!used.insert((static_cast<std::uint64_t>(u) << 32) |
                       static_cast<std::uint32_t>(v))
               .second) {
        ok = false;
        break;
      }
      g.edges.push_back({u, v, 1.0});
    }
    if (!ok) continue;

    // Connectivity check over the candidate edge set.
    for (auto& list : nbrs) list.clear();
    for (const auto& e : g.edges) {
      nbrs[e.u].push_back(e.v);
      nbrs[e.v].push_back(e.u);
    }
    std::fill(reached.begin(), reached.end(), 0);
    std::vector<NodeId> stack{0};
    reached[0] = 1;
    int seen = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : nbrs[u]) {
        if (reached[v]) continue;
        reached[v] = 1;
        ++seen;
        stack.push_back(v);
      }
    }
    if (seen == n) {
      std::sort(g.edges.begin(), g.edges.end(), [](const auto& a, const auto& b) {
        return a.u != b.u ? a.u < b.u : a.v < b.v;
      });
      return g;
    }
  }
  DIVA_CHECK_MSG(false, "random regular graph: no valid pairing found for n="
                            << n << ", d=" << d << ", seed=" << seed);
  return g;
}

GraphSpec gridGraph(int rows, int cols) {
  DIVA_CHECK_MSG(rows >= 1 && cols >= 1,
                 "grid graph: dimensions must be positive (got " << rows << "x" << cols
                                                                 << ")");
  DIVA_CHECK_MSG(static_cast<std::int64_t>(rows) * cols <= kMaxGraphNodes,
                 "grid graph exceeds " << kMaxGraphNodes << " nodes");
  GraphSpec g;
  g.name = "grid" + std::to_string(rows) + "x" + std::to_string(cols);
  g.numNodes = rows * cols;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const NodeId u = static_cast<NodeId>(r * cols + c);
      if (c + 1 < cols) g.edges.push_back({u, u + 1, 1.0});
      if (r + 1 < rows) g.edges.push_back({u, u + cols, 1.0});
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

GraphSpec parseGraph(const std::string& text) {
  GraphSpec g;
  g.name = "file";
  g.numNodes = -1;
  support::LineReader in(text, "graph");
  // Undirected pairs already declared, for line-numbered duplicate
  // diagnostics — GraphTopology would reject them too, but only after
  // parsing, without saying which line to fix.
  std::unordered_set<std::uint64_t> seenEdges;
  while (in.next()) {
    const std::string word = in.word("directive");
    if (word == "graph") {
      g.name = in.word("graph name");
    } else if (word == "nodes") {
      DIVA_CHECK_MSG(g.numNodes < 0, in.where() << "duplicate 'nodes' line");
      g.numNodes = in.value<int>("node count");
      DIVA_CHECK_MSG(g.numNodes >= 1 && g.numNodes <= kMaxGraphNodes,
                     in.where() << "node count must be in [1, " << kMaxGraphNodes
                                << "] (got " << g.numNodes << ")");
    } else if (word == "edge") {
      DIVA_CHECK_MSG(g.numNodes >= 0, in.where() << "'edge' before 'nodes'");
      GraphSpec::Edge e;
      e.u = in.value<NodeId>("edge endpoint");
      e.v = in.value<NodeId>("edge endpoint");
      DIVA_CHECK_MSG(e.u >= 0 && e.u < g.numNodes && e.v >= 0 && e.v < g.numNodes,
                     in.where() << "edge " << e.u << "-" << e.v << " out of range for "
                                << g.numNodes << " nodes");
      DIVA_CHECK_MSG(e.u != e.v, in.where() << "self-loop at node " << e.u);
      const auto lo = static_cast<std::uint64_t>(std::min(e.u, e.v));
      const auto hi = static_cast<std::uint64_t>(std::max(e.u, e.v));
      DIVA_CHECK_MSG(seenEdges.insert((hi << 32) | lo).second,
                     in.where() << "duplicate edge " << e.u << "-" << e.v);
      if (in.more()) e.weight = in.value<double>("edge weight");
      if (in.more()) e.latency = in.value<double>("edge latency");
      DIVA_CHECK_MSG(e.weight > 0.0 && e.weight <= sim::kMaxInputTime && e.latency > 0.0 &&
                         e.latency <= sim::kMaxInputTime,
                     in.where() << "edge weight and latency must be in (0, 2^53]");
      g.edges.push_back(e);
    } else {
      DIVA_CHECK_MSG(false, in.where() << "unknown directive '" << word << "'");
    }
    in.end(word);
  }
  DIVA_CHECK_MSG(g.numNodes >= 0, "graph file has no 'nodes' line");
  return g;
}

GraphSpec loadGraphFile(const std::string& path) {
  return support::parseTextFile(path, "graph", parseGraph);
}

std::string formatGraph(const GraphSpec& spec) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  if (!spec.name.empty()) out << "graph " << spec.name << "\n";
  out << "nodes " << spec.numNodes << "\n";
  for (const GraphSpec::Edge& e : spec.edges) {
    out << "edge " << e.u << " " << e.v;
    // Fields are positional: a non-default latency forces the weight out.
    if (e.weight != 1.0 || e.latency != 1.0) out << " " << e.weight;
    if (e.latency != 1.0) out << " " << e.latency;
    out << "\n";
  }
  return out.str();
}

}  // namespace diva::net
