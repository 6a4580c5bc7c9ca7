#include "bisim/branching.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lts/analysis.hpp"

namespace multival::bisim {

namespace {

using lts::ActionTable;
using lts::Lts;
using lts::OutEdge;
using lts::StateId;

// Marks a component on a tau cycle (divergence-sensitive signatures only).
constexpr SigElem kDivergentMark = 1ull << 62;

void sort_unique(std::vector<SigElem>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// The contracted graph: tau-SCCs (restricted to tau edges joining states of
// the same initial block) are collapsed to single nodes.  Component edges
// are one CSR array: the edges of component c are
// out[out_begin[c] .. out_begin[c+1]).
struct Contracted {
  std::vector<StateId> comp_of;        // state -> component
  std::size_t num_components = 0;
  std::vector<std::size_t> out_begin;  // component -> first edge
  std::vector<OutEdge> out;            // (action, component)
  std::vector<bool> divergent;         // component had an intra tau cycle

  [[nodiscard]] std::span<const OutEdge> out_of(StateId comp) const {
    return {out.data() + out_begin[comp], out.data() + out_begin[comp + 1]};
  }
};

/// The current signature of every component: component c's signature is
/// the length[c] elements at data[c], in one SignatureArena.  Within a round
/// signatures only grow, and a changed one is stored anew.
struct SignatureStore {
  SignatureArena arena;
  std::vector<const SigElem*> data;
  std::vector<std::uint32_t> length;

  [[nodiscard]] std::span<const SigElem> of(StateId comp) const {
    return {data[comp], length[comp]};
  }

  /// Stores @p sig as @p comp's signature; false if it was already that.
  bool update(StateId comp, const std::vector<SigElem>& sig) {
    const std::span<const SigElem> old = of(comp);
    if (std::equal(sig.begin(), sig.end(), old.begin(), old.end())) {
      return false;
    }
    data[comp] = arena.store(sig);
    length[comp] = static_cast<std::uint32_t>(sig.size());
    return true;
  }
};

Contracted contract(const Lts& l, const Partition& initial) {
  // Tau edges within the same initial block are candidates for collapse.
  const auto inertish = [&](const OutEdge& e, StateId src) {
    return ActionTable::is_tau(e.action) &&
           initial.block_of(src) == initial.block_of(e.dst);
  };
  // strongly_connected_components takes an edge filter without the source,
  // so we filter on block equality via a wrapper LTS scan instead: build the
  // SCCs manually over the filtered relation.
  // Reuse lts::strongly_connected_components by encoding the filter: it only
  // sees the edge, so we need the source.  Do a local Tarjan instead.
  const std::size_t n = l.num_states();
  std::vector<StateId> comp_of(n, lts::kNoState);
  std::size_t ncomp = 0;
  {
    constexpr StateId kUnvisited = lts::kNoState;
    std::vector<StateId> index(n, kUnvisited);
    std::vector<StateId> lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<StateId> scc_stack;
    struct Frame {
      StateId state;
      std::size_t edge;
    };
    std::vector<Frame> call;
    StateId next_index = 0;
    for (StateId root = 0; root < n; ++root) {
      if (index[root] != kUnvisited) {
        continue;
      }
      call.push_back(Frame{root, 0});
      index[root] = lowlink[root] = next_index++;
      scc_stack.push_back(root);
      on_stack[root] = true;
      while (!call.empty()) {
        Frame& fr = call.back();
        const StateId v = fr.state;
        const auto edges = l.out(v);
        bool descended = false;
        while (fr.edge < edges.size()) {
          const OutEdge& e = edges[fr.edge++];
          if (!inertish(e, v)) {
            continue;
          }
          const StateId w = e.dst;
          if (index[w] == kUnvisited) {
            index[w] = lowlink[w] = next_index++;
            scc_stack.push_back(w);
            on_stack[w] = true;
            call.push_back(Frame{w, 0});
            descended = true;
            break;
          }
          if (on_stack[w]) {
            lowlink[v] = std::min(lowlink[v], index[w]);
          }
        }
        if (descended) {
          continue;
        }
        if (lowlink[v] == index[v]) {
          StateId w = lts::kNoState;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            comp_of[w] = static_cast<StateId>(ncomp);
          } while (w != v);
          ++ncomp;
        }
        call.pop_back();
        if (!call.empty()) {
          lowlink[call.back().state] =
              std::min(lowlink[call.back().state], lowlink[v]);
        }
      }
    }
  }

  Contracted c;
  c.comp_of = std::move(comp_of);
  c.num_components = ncomp;
  c.divergent.assign(ncomp, false);
  std::vector<std::size_t> comp_size(ncomp, 0);
  for (StateId s = 0; s < n; ++s) {
    ++comp_size[c.comp_of[s]];
  }
  // Intra-component tau edges are collapsed; one witnesses divergence if
  // the component is a real cycle (size > 1 or self-loop).
  const auto collapsed = [&](StateId s, const OutEdge& e) {
    return ActionTable::is_tau(e.action) && c.comp_of[s] == c.comp_of[e.dst];
  };
  c.out_begin.assign(ncomp + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    for (const OutEdge& e : l.out(s)) {
      if (!collapsed(s, e)) {
        ++c.out_begin[c.comp_of[s] + 1];
      }
    }
  }
  for (std::size_t comp = 0; comp < ncomp; ++comp) {
    c.out_begin[comp + 1] += c.out_begin[comp];
  }
  c.out.resize(c.out_begin[ncomp]);
  std::vector<std::size_t> fill(c.out_begin.begin(), c.out_begin.end() - 1);
  for (StateId s = 0; s < n; ++s) {
    const StateId cs = c.comp_of[s];
    for (const OutEdge& e : l.out(s)) {
      if (!collapsed(s, e)) {
        c.out[fill[cs]++] = OutEdge{e.action, c.comp_of[e.dst]};
      } else if (comp_size[cs] > 1 || e.dst == s) {
        c.divergent[cs] = true;
      }
    }
  }
  return c;
}

/// Signature refinement over the components of @p c, seeded from @p initial.
Partition refine(const Contracted& c, const Partition& initial,
                 const BranchingOptions& opts) {
  const std::size_t n = initial.num_states();
  const std::size_t nc = c.num_components;

  // Partition over components, seeded from the initial state partition
  // (every state of a component shares the initial block by construction),
  // with block ids in order of first occurrence over the states.
  // Divergence is handled in the signatures, where the marker propagates
  // backwards over inert tau — a state that can silently reach a divergence
  // is divergence-equivalent to it.
  std::vector<BlockId> comp_block(nc, 0);
  std::size_t nblocks = 0;
  {
    constexpr BlockId kUnseen = static_cast<BlockId>(-1);
    std::vector<BlockId> seed(initial.num_blocks(), kUnseen);
    for (StateId s = 0; s < n; ++s) {
      BlockId& b = seed[initial.block_of(s)];
      if (b == kUnseen) {
        b = static_cast<BlockId>(nblocks++);
      }
      comp_block[c.comp_of[s]] = b;
    }
  }

  // A component's signature is replaced as soon as it is rebuilt, so a pass
  // reads the signatures of lower components already rebuilt in the same
  // pass (Gauss–Seidel order).
  SignatureStore sigs;
  sigs.data.resize(nc);
  sigs.length.resize(nc);
  std::vector<SigElem> sig;  // scratch: one component's new signature
  SignatureTable table;
  std::vector<BlockId> next(nc);
  while (true) {
    // Inner fixpoint: propagate signatures across inert tau edges.  The
    // contracted tau relation is (nearly) acyclic and Tarjan numbers
    // components so that tau edges go from higher to lower ids, so one
    // ascending pass usually converges; we iterate to cover residual
    // cross-block cycles.
    sigs.arena.clear();
    std::fill(sigs.data.begin(), sigs.data.end(), nullptr);
    std::fill(sigs.length.begin(), sigs.length.end(), 0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (StateId comp = 0; comp < nc; ++comp) {
        sig.clear();
        sig.push_back(comp_block[comp]);  // old block: monotone refinement
        if (opts.divergence_sensitive && c.divergent[comp]) {
          sig.push_back(kDivergentMark);
        }
        for (const OutEdge& e : c.out_of(comp)) {
          const bool inert = ActionTable::is_tau(e.action) &&
                             comp_block[e.dst] == comp_block[comp];
          if (inert) {
            // Union the successor's current signature minus its old-block
            // element (shared with ours).
            for (const SigElem x : sigs.of(e.dst)) {
              if (x >= kDivergentMark) {
                sig.push_back(x);
              }
            }
          } else {
            sig.push_back(edge_elem(e.action, comp_block[e.dst]));
          }
        }
        sort_unique(sig);
        changed |= sigs.update(comp, sig);
      }
    }

    // Re-block by signature.
    table.reset(nc);
    for (StateId comp = 0; comp < nc; ++comp) {
      next[comp] = table.intern(sigs.of(comp));
    }
    const bool stable = table.size() == nblocks;
    nblocks = table.size();
    comp_block.swap(next);
    if (stable) {
      break;
    }
  }

  std::vector<BlockId> block_of(n, 0);
  for (StateId s = 0; s < n; ++s) {
    block_of[s] = comp_block[c.comp_of[s]];
  }
  return Partition(std::move(block_of), nblocks);
}

}  // namespace

Partition branching_partition(const Lts& l, const Partition& initial,
                              const BranchingOptions& opts) {
  if (initial.num_states() != l.num_states()) {
    throw std::invalid_argument(
        "branching_partition: partition size mismatch");
  }
  return refine(contract(l, initial), initial, opts);
}

Partition branching_partition(const Lts& l, const BranchingOptions& opts) {
  return branching_partition(l, Partition(l.num_states()), opts);
}

MinimizeResult minimize_branching(const Lts& l, const BranchingOptions& opts) {
  // The trivial initial partition makes the refinement's contraction the
  // one that marks divergent blocks; it is dropped before the quotient.
  Partition p(0);
  std::vector<bool> block_divergent;
  {
    const Partition trivial(l.num_states());
    const Contracted c = contract(l, trivial);
    p = refine(c, trivial, opts);
    if (opts.divergence_sensitive) {
      block_divergent.assign(p.num_blocks(), false);
      for (StateId s = 0; s < l.num_states(); ++s) {
        if (c.divergent[c.comp_of[s]]) {
          block_divergent[p.block_of(s)] = true;
        }
      }
    }
  }
  Lts q = quotient_lts(l, p, /*skip_inert_tau=*/true);
  // Re-add a tau self-loop on every divergent block so livelocks survive.
  for (BlockId b = 0; b < block_divergent.size(); ++b) {
    if (block_divergent[b]) {
      q.add_transition(b, ActionTable::kTau, b);
    }
  }
  return MinimizeResult{std::move(q), std::move(p)};
}

}  // namespace multival::bisim
