#include "imc/lump.hpp"

#include "imc/compose.hpp"

#include "core/graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace multival::imc {

namespace {

using bisim::BlockId;
using lts::ActionTable;

/// Quantises a rate for signature comparison: ~1e-12 relative resolution,
/// robust against summation-order noise.
std::uint64_t quantize_rate(double r) {
  int exp = 0;
  const double m = std::frexp(r, &exp);  // m in [0.5, 1)
  const auto mant = static_cast<std::uint64_t>(
      std::llround(m * static_cast<double>(1ull << 40)));
  return (mant << 12) ^ static_cast<std::uint64_t>(exp + 2048);
}

// Signature element: (key, aux).  Interactive: key = tag|action|block,
// aux = 0.  Markovian: key = tag|block, aux = quantised aggregate rate.
// The current block id is prepended separately.
using SigElem = std::pair<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kInterTag = 1ull << 62;
constexpr std::uint64_t kMarkTag = 1ull << 63;

struct SigHash {
  std::size_t operator()(const std::vector<SigElem>& v) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& [a, b] : v) {
      h ^= a;
      h *= 1099511628211ull;
      h ^= b;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// A Markovian edge of the refinement graph: target node, rate, and the
/// interned measurement label (labels take part in lumping so that
/// throughput probes survive minimisation, as in BCG_MIN).
struct MarkRef {
  StateId dst = 0;
  double rate = 0.0;
  std::uint32_t label = 0;
};

/// The (possibly contracted) graph the refinement runs on.
struct Graph {
  std::vector<StateId> node_of;  // original state -> node
  std::size_t num_nodes = 0;
  std::vector<std::vector<InterEdge>> inter;  // node-level, no intra-node tau
  std::vector<std::vector<MarkRef>> mark;
};

/// Interns Markovian labels of @p m into dense ids (0 = unlabelled).
std::unordered_map<std::string, std::uint32_t> label_ids(const Imc& m) {
  std::unordered_map<std::string, std::uint32_t> ids;
  ids.emplace("", 0);
  for (StateId s = 0; s < m.num_states(); ++s) {
    for (const MarkEdge& e : m.markovian(s)) {
      ids.emplace(e.label, static_cast<std::uint32_t>(ids.size()));
    }
  }
  return ids;
}

/// Identity graph (strong lumping): every state is its own node.
Graph identity_graph(const Imc& m) {
  Graph g;
  const auto labels = label_ids(m);
  const std::size_t n = m.num_states();
  g.num_nodes = n;
  g.node_of.resize(n);
  g.inter.resize(n);
  g.mark.resize(n);
  for (StateId s = 0; s < n; ++s) {
    g.node_of[s] = s;
    for (const InterEdge& e : m.interactive(s)) {
      g.inter[s].push_back(e);
    }
    for (const MarkEdge& e : m.markovian(s)) {
      g.mark[s].push_back(MarkRef{e.dst, e.rate, labels.at(e.label)});
    }
  }
  return g;
}

/// Contracts tau-SCCs lying within one block of @p initial (branching).
Graph contracted_graph(const Imc& m, const Partition& initial) {
  const auto labels = label_ids(m);
  const std::size_t n = m.num_states();
  // Contract the SCCs of the tau edges within one initial block.
  core::Components scc = core::strongly_connected_components(
      core::Digraph::build(n, [&](auto&& emit) {
        for (StateId s = 0; s < n; ++s) {
          for (const InterEdge& e : m.interactive(s)) {
            if (ActionTable::is_tau(e.action) &&
                initial.block_of(s) == initial.block_of(e.dst)) {
              emit(s, e.dst);
            }
          }
        }
      }));

  Graph g;
  g.node_of = std::move(scc.component_of);
  g.num_nodes = scc.num_components;
  g.inter.resize(g.num_nodes);
  g.mark.resize(g.num_nodes);
  for (StateId s = 0; s < n; ++s) {
    const StateId cs = g.node_of[s];
    for (const InterEdge& e : m.interactive(s)) {
      const StateId ct = g.node_of[e.dst];
      if (ActionTable::is_tau(e.action) && cs == ct) {
        continue;  // collapsed
      }
      g.inter[cs].push_back(InterEdge{e.action, ct});
    }
    for (const MarkEdge& e : m.markovian(s)) {
      g.mark[cs].push_back(
          MarkRef{g.node_of[e.dst], e.rate, labels.at(e.label)});
    }
  }
  return g;
}

Partition refine(const Imc& m, const Graph& g, const Partition& initial,
                 bool closure) {
  const std::size_t n = m.num_states();
  const std::size_t nn = g.num_nodes;

  // Seed node blocks from the initial state partition.
  std::vector<BlockId> node_block(nn, 0);
  {
    std::unordered_map<BlockId, BlockId> seed;
    for (StateId s = 0; s < n; ++s) {
      const auto [it, inserted] = seed.emplace(
          initial.block_of(s), static_cast<BlockId>(seed.size()));
      node_block[g.node_of[s]] = it->second;
    }
  }
  std::size_t nblocks = 0;
  for (const BlockId b : node_block) {
    nblocks = std::max<std::size_t>(nblocks, b + 1);
  }

  // With closure, one ascending pass per round computes every signature
  // exactly: an inert edge is a tau edge within one initial block between
  // two different nodes, i.e. an edge of the graph whose SCCs
  // contracted_graph() took, and the kernel numbers components in reverse
  // topological order, so it leads to a lower node, already rebuilt in this
  // pass.
  std::vector<std::vector<SigElem>> sigs(nn);

  while (true) {
    std::unordered_map<std::vector<SigElem>, BlockId, SigHash> table;
    std::vector<BlockId> next(nn, 0);
    for (StateId node = 0; node < nn; ++node) {
      std::vector<SigElem> sig;
      sig.emplace_back(node_block[node], 0);  // monotone refinement
      // Aggregate own Markovian rates per (target block, label).
      {
        std::vector<std::pair<std::uint64_t, double>> per_key;
        for (const MarkRef& e : g.mark[node]) {
          per_key.emplace_back(
              (static_cast<std::uint64_t>(e.label) << 32) | node_block[e.dst],
              e.rate);
        }
        std::sort(per_key.begin(), per_key.end());
        for (std::size_t i = 0; i < per_key.size();) {
          double total = 0.0;
          std::size_t j = i;
          while (j < per_key.size() && per_key[j].first == per_key[i].first) {
            total += per_key[j].second;
            ++j;
          }
          sig.emplace_back(kMarkTag | per_key[i].first, quantize_rate(total));
          i = j;
        }
      }
      for (const InterEdge& e : g.inter[node]) {
        const bool inert = closure && ActionTable::is_tau(e.action) &&
                           node_block[e.dst] == node_block[node];
        if (inert) {
          for (const SigElem& x : sigs[e.dst]) {
            if (x.first & (kInterTag | kMarkTag)) {
              sig.push_back(x);
            }
          }
        } else {
          sig.emplace_back(
              kInterTag | (static_cast<std::uint64_t>(e.action) << 32) |
                  node_block[e.dst],
              0);
        }
      }
      std::sort(sig.begin(), sig.end());
      sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
      next[node] =
          table.emplace(sig, static_cast<BlockId>(table.size())).first->second;
      sigs[node] = std::move(sig);
    }
    const bool stable = table.size() == nblocks;
    nblocks = table.size();
    node_block = std::move(next);
    if (stable) {
      break;
    }
  }

  std::vector<BlockId> block_of(n, 0);
  for (StateId s = 0; s < n; ++s) {
    block_of[s] = node_block[g.node_of[s]];
  }
  return Partition(std::move(block_of), nblocks == 0 ? 0 : nblocks);
}

}  // namespace

Partition lump_strong(const Imc& m, const Partition& initial) {
  if (initial.num_states() != m.num_states()) {
    throw std::invalid_argument("lump_strong: partition size mismatch");
  }
  if (m.num_states() == 0) {
    return Partition(0);
  }
  return refine(m, identity_graph(m), initial, /*closure=*/false);
}

Partition lump_strong(const Imc& m) {
  return lump_strong(m, Partition(m.num_states()));
}

Partition lump_branching(const Imc& m, const Partition& initial) {
  if (initial.num_states() != m.num_states()) {
    throw std::invalid_argument("lump_branching: partition size mismatch");
  }
  if (m.num_states() == 0) {
    return Partition(0);
  }
  return refine(m, contracted_graph(m, initial), initial, /*closure=*/true);
}

Partition lump_branching(const Imc& m) {
  return lump_branching(m, Partition(m.num_states()));
}

Imc quotient_imc(const Imc& m, const Partition& p, bool branching) {
  Imc q;
  q.add_states(p.num_blocks());
  if (m.num_states() > 0) {
    q.set_initial_state(p.block_of(m.initial_state()));
  }

  // Pick one representative per block: a state with no inert tau, so its
  // own transitions describe the whole block's observable behaviour.
  const std::size_t nb = p.num_blocks();
  std::vector<StateId> rep(nb, lts::kNoState);
  for (StateId s = 0; s < m.num_states(); ++s) {
    const BlockId b = p.block_of(s);
    if (rep[b] != lts::kNoState) {
      continue;
    }
    bool has_inert_tau = false;
    for (const InterEdge& e : m.interactive(s)) {
      if (ActionTable::is_tau(e.action) && p.block_of(e.dst) == b) {
        has_inert_tau = true;
        break;
      }
    }
    if (!branching || !has_inert_tau) {
      rep[b] = s;
    }
  }
  // Fallback (can only happen for partitions not produced by lumping):
  // any member.
  for (StateId s = 0; s < m.num_states(); ++s) {
    if (rep[p.block_of(s)] == lts::kNoState) {
      rep[p.block_of(s)] = s;
    }
  }

  for (BlockId b = 0; b < nb; ++b) {
    const StateId s = rep[b];
    // Interactive edges (dedup; skip inert tau when branching).
    std::vector<std::pair<ActionId, BlockId>> iedges;
    for (const InterEdge& e : m.interactive(s)) {
      const BlockId bt = p.block_of(e.dst);
      if (branching && ActionTable::is_tau(e.action) && bt == b) {
        continue;
      }
      iedges.emplace_back(e.action, bt);
    }
    std::sort(iedges.begin(), iedges.end());
    iedges.erase(std::unique(iedges.begin(), iedges.end()), iedges.end());
    for (const auto& [a, bt] : iedges) {
      q.add_interactive(b, m.actions().name(a), bt);
    }
    // Markovian edges: aggregate per (target block, label).
    std::map<std::pair<BlockId, std::string>, double> rates;
    for (const MarkEdge& e : m.markovian(s)) {
      rates[{p.block_of(e.dst), e.label}] += e.rate;
    }
    for (const auto& [key, rate] : rates) {
      q.add_markovian(b, rate, key.first, key.second);
    }
  }
  return q;
}

LumpResult minimize_imc(const Imc& m) {
  const Imc mp = maximal_progress(m);
  Partition p = lump_branching(mp);
  Imc q = quotient_imc(mp, p, /*branching=*/true);
  return LumpResult{std::move(q), std::move(p)};
}

}  // namespace multival::imc
