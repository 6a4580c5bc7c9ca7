#include "bisim_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace multival::bisim::testing {

namespace {

using lts::ActionId;
using lts::ActionTable;
using lts::Lts;
using lts::OutEdge;
using lts::StateId;

using SigElem = std::uint64_t;

constexpr SigElem kEdgeTag = 1ull << 63;
constexpr SigElem kDivergentMark = 1ull << 62;

SigElem edge_elem(ActionId a, BlockId b) {
  return kEdgeTag | (static_cast<SigElem>(a) << 32) | b;
}

struct SigHash {
  std::size_t operator()(const std::vector<SigElem>& v) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    for (const SigElem e : v) {
      h ^= e;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

void sort_unique(std::vector<SigElem>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

Lts saturate(const Lts& l) {
  const std::size_t n = l.num_states();
  std::vector<std::vector<StateId>> closure(n);
  for (StateId s = 0; s < n; ++s) {
    std::vector<bool> in(n, false);
    std::vector<StateId> stack{s};
    in[s] = true;
    while (!stack.empty()) {
      const StateId v = stack.back();
      stack.pop_back();
      closure[s].push_back(v);
      for (const OutEdge& e : l.out(v)) {
        if (ActionTable::is_tau(e.action) && !in[e.dst]) {
          in[e.dst] = true;
          stack.push_back(e.dst);
        }
      }
    }
  }
  Lts w;
  w.add_states(n);
  if (n > 0) {
    w.set_initial_state(l.initial_state());
  }
  std::vector<ActionId> amap(l.actions().size(), lts::kNoState);
  for (StateId s = 0; s < n; ++s) {
    std::vector<std::unordered_set<std::uint64_t>> seen(l.actions().size());
    for (const StateId u : closure[s]) {
      if (seen[ActionTable::kTau].insert(u).second) {
        w.add_transition(s, ActionTable::kTau, u);
      }
    }
    for (const StateId sp : closure[s]) {
      for (const OutEdge& e : l.out(sp)) {
        if (ActionTable::is_tau(e.action)) {
          continue;
        }
        if (amap[e.action] == lts::kNoState) {
          amap[e.action] = w.actions().intern(l.actions().name(e.action));
        }
        for (const StateId u : closure[e.dst]) {
          if (seen[e.action].insert(u).second) {
            w.add_transition(s, amap[e.action], u);
          }
        }
      }
    }
  }
  return w;
}

struct Contracted {
  std::vector<StateId> comp_of;
  std::size_t num_components = 0;
  std::vector<std::vector<OutEdge>> out;
  std::vector<bool> divergent;
};

Contracted contract(const Lts& l, const Partition& initial) {
  const auto inertish = [&](const OutEdge& e, StateId src) {
    return ActionTable::is_tau(e.action) &&
           initial.block_of(src) == initial.block_of(e.dst);
  };
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
  c.out.resize(ncomp);
  c.divergent.assign(ncomp, false);
  std::vector<std::size_t> comp_size(ncomp, 0);
  for (StateId s = 0; s < n; ++s) {
    ++comp_size[c.comp_of[s]];
  }
  for (StateId s = 0; s < n; ++s) {
    const StateId cs = c.comp_of[s];
    for (const OutEdge& e : l.out(s)) {
      const StateId ct = c.comp_of[e.dst];
      if (ActionTable::is_tau(e.action) && cs == ct) {
        if (comp_size[cs] > 1 || e.dst == s) {
          c.divergent[cs] = true;
        }
        continue;
      }
      c.out[cs].push_back(OutEdge{e.action, ct});
    }
  }
  return c;
}

}  // namespace

Partition reference_strong_partition(const Lts& l, const Partition& initial) {
  const std::size_t n = l.num_states();
  if (initial.num_states() != n) {
    throw std::invalid_argument("strong_partition: partition size mismatch");
  }
  Partition p = initial;
  p.normalize();

  std::vector<SigElem> sig;
  while (true) {
    std::unordered_map<std::vector<SigElem>, BlockId, SigHash> table;
    std::vector<BlockId> next(n, 0);
    for (StateId s = 0; s < n; ++s) {
      sig.clear();
      sig.push_back(p.block_of(s));
      for (const OutEdge& e : l.out(s)) {
        sig.push_back(edge_elem(e.action, p.block_of(e.dst)));
      }
      std::sort(sig.begin() + 1, sig.end());
      sig.erase(std::unique(sig.begin() + 1, sig.end()), sig.end());
      const auto [it, inserted] =
          table.emplace(sig, static_cast<BlockId>(table.size()));
      next[s] = it->second;
    }
    const std::size_t new_blocks = table.size();
    const bool stable = new_blocks == p.num_blocks();
    p = Partition(std::move(next), new_blocks);
    if (stable) {
      break;
    }
  }
  return p;
}

Partition reference_weak_partition(const Lts& l) {
  if (l.num_states() == 0) {
    return Partition(0);
  }
  const Lts w = saturate(l);
  return reference_strong_partition(w, Partition(w.num_states()));
}

Partition reference_branching_partition(const Lts& l,
                                        const Partition& initial,
                                        const BranchingOptions& opts) {
  const std::size_t n = l.num_states();
  if (initial.num_states() != n) {
    throw std::invalid_argument(
        "branching_partition: partition size mismatch");
  }
  if (n == 0) {
    return Partition(0);
  }
  const Contracted c = contract(l, initial);
  const std::size_t nc = c.num_components;

  std::vector<BlockId> comp_block(nc, 0);
  {
    std::unordered_map<std::uint64_t, BlockId> seed;
    for (StateId s = 0; s < n; ++s) {
      const auto [it, inserted] = seed.emplace(
          initial.block_of(s), static_cast<BlockId>(seed.size()));
      comp_block[c.comp_of[s]] = it->second;
    }
  }
  std::size_t nblocks = 0;
  for (const BlockId b : comp_block) {
    nblocks = std::max<std::size_t>(nblocks, b + 1);
  }

  std::vector<std::vector<SigElem>> sigs(nc);
  while (true) {
    for (StateId comp = 0; comp < nc; ++comp) {
      sigs[comp].clear();
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (StateId comp = 0; comp < nc; ++comp) {
        std::vector<SigElem> sig;
        sig.push_back(comp_block[comp]);
        if (opts.divergence_sensitive && c.divergent[comp]) {
          sig.push_back(kDivergentMark);
        }
        for (const OutEdge& e : c.out[comp]) {
          const bool inert = ActionTable::is_tau(e.action) &&
                             comp_block[e.dst] == comp_block[comp];
          if (inert) {
            for (const SigElem x : sigs[e.dst]) {
              if (x >= kDivergentMark) {
                sig.push_back(x);
              }
            }
          } else {
            sig.push_back(edge_elem(e.action, comp_block[e.dst]));
          }
        }
        sort_unique(sig);
        if (sig != sigs[comp]) {
          sigs[comp] = std::move(sig);
          changed = true;
        }
      }
    }

    std::unordered_map<std::vector<SigElem>, BlockId, SigHash> table;
    std::vector<BlockId> next(nc, 0);
    for (StateId comp = 0; comp < nc; ++comp) {
      const auto [it, inserted] =
          table.emplace(sigs[comp], static_cast<BlockId>(table.size()));
      next[comp] = it->second;
    }
    const bool stable = table.size() == nblocks;
    nblocks = table.size();
    comp_block = std::move(next);
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

Lts reference_quotient(const Lts& l, const Partition& p, bool skip_inert_tau) {
  Lts q;
  q.add_states(p.num_blocks());
  if (l.num_states() > 0) {
    q.set_initial_state(p.block_of(l.initial_state()));
  }
  std::vector<ActionId> amap(l.actions().size(), lts::kNoState);
  std::vector<std::unordered_set<std::uint64_t>> seen(l.actions().size());
  for (StateId s = 0; s < l.num_states(); ++s) {
    const BlockId bs = p.block_of(s);
    for (const OutEdge& e : l.out(s)) {
      const BlockId bt = p.block_of(e.dst);
      if (skip_inert_tau && ActionTable::is_tau(e.action) && bs == bt) {
        continue;
      }
      const std::uint64_t key = (static_cast<std::uint64_t>(bs) << 32) | bt;
      if (!seen[e.action].insert(key).second) {
        continue;
      }
      if (amap[e.action] == lts::kNoState) {
        amap[e.action] = q.actions().intern(l.actions().name(e.action));
      }
      q.add_transition(bs, amap[e.action], bt);
    }
  }
  return q;
}

MinimizeResult reference_minimize(const Lts& l, Equivalence e) {
  const Partition trivial(l.num_states());
  switch (e) {
    case Equivalence::kStrong: {
      Partition p = reference_strong_partition(l, trivial);
      Lts q = reference_quotient(l, p, /*skip_inert_tau=*/false);
      return MinimizeResult{std::move(q), std::move(p)};
    }
    case Equivalence::kWeak: {
      Partition p = reference_weak_partition(l);
      Lts q = reference_quotient(l, p, /*skip_inert_tau=*/true);
      return MinimizeResult{std::move(q), std::move(p)};
    }
    case Equivalence::kBranching:
    case Equivalence::kDivergenceBranching: {
      const BranchingOptions opts{e == Equivalence::kDivergenceBranching};
      Partition p = reference_branching_partition(l, trivial, opts);
      Lts q = reference_quotient(l, p, /*skip_inert_tau=*/true);
      if (opts.divergence_sensitive) {
        const Contracted c = contract(l, trivial);
        std::vector<bool> block_divergent(p.num_blocks(), false);
        for (StateId s = 0; s < l.num_states(); ++s) {
          if (c.divergent[c.comp_of[s]]) {
            block_divergent[p.block_of(s)] = true;
          }
        }
        for (BlockId b = 0; b < block_divergent.size(); ++b) {
          if (block_divergent[b]) {
            q.add_transition(b, ActionTable::kTau, b);
          }
        }
      }
      return MinimizeResult{std::move(q), std::move(p)};
    }
  }
  throw std::logic_error("reference_minimize: bad equivalence");
}

}  // namespace multival::bisim::testing
