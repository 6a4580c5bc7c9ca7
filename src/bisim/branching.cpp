#include "bisim/branching.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/graph.hpp"

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

Contracted contract(const Lts& l, const Partition& initial) {
  const std::size_t n = l.num_states();
  Contracted c;
  // Tau edges within one initial block are the candidates for collapse.
  // The filtered graph is a temporary, freed before the component CSR is
  // built.
  core::Components scc = core::strongly_connected_components(
      core::Digraph::build(n, [&](auto&& emit) {
        for (StateId s = 0; s < n; ++s) {
          for (const OutEdge& e : l.out(s)) {
            if (ActionTable::is_tau(e.action) &&
                initial.block_of(s) == initial.block_of(e.dst)) {
              emit(s, e.dst);
            }
          }
        }
      }));
  c.comp_of = std::move(scc.component_of);
  c.num_components = scc.num_components;
  const std::size_t ncomp = c.num_components;
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

  // One ascending pass per round computes every signature exactly.  An
  // inert edge is a tau edge within one block, hence within one initial
  // block, and joins two different components (tau edges inside a
  // component were collapsed), so it is an edge of the graph whose SCCs
  // contract() took.  The kernel numbers components in reverse topological
  // order, so the edge leads to a strictly lower id, whose signature is
  // already final in this pass.  A component's signature is read back from
  // the table by its new block id.
  std::vector<SigElem> sig;  // scratch: one component's new signature
  SignatureTable table;
  std::vector<BlockId> next(nc);
  while (true) {
    table.reset(nc);
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
          // Union the successor's signature minus its old-block element
          // (shared with ours).
          for (const SigElem x : table.signature(next[e.dst])) {
            if (x >= kDivergentMark) {
              sig.push_back(x);
            }
          }
        } else {
          sig.push_back(edge_elem(e.action, comp_block[e.dst]));
        }
      }
      sort_unique(sig);
      next[comp] = table.intern(sig);
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
