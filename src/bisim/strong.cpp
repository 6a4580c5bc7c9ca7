#include "bisim/strong.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace multival::bisim {

namespace {

using lts::ActionId;
using lts::Lts;
using lts::OutEdge;
using lts::StateId;

/// Set of 64-bit keys cleared in O(1): a slot belongs to the set only if its
/// stamp is the current one.  Open addressing with linear probing; grows
/// when half full.
class StampedSet {
 public:
  StampedSet() : keys_(16), stamps_(16, 0) {}

  void clear() {
    size_ = 0;
    if (++stamp_ == 0) {  // wrapped: old stamps would alias
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
  }

  /// True if @p key was not in the set (and is now).
  bool insert(std::uint64_t key) {
    if (2 * (size_ + 1) > keys_.size()) {
      grow();
    }
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (stamps_[i] == stamp_) {
      if (keys_[i] == key) {
        return false;
      }
      i = (i + 1) & mask;
    }
    stamps_[i] = stamp_;
    keys_[i] = key;
    ++size_;
    return true;
  }

 private:
  static std::uint64_t mix(std::uint64_t k) {
    k *= 0x9e3779b97f4a7c15ull;
    return k ^ (k >> 29);
  }

  void grow() {
    std::vector<std::uint64_t> live;
    live.reserve(size_);
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (stamps_[i] == stamp_) {
        live.push_back(keys_[i]);
      }
    }
    keys_.assign(2 * keys_.size(), 0);
    stamps_.assign(keys_.size(), 0);
    stamp_ = 1;
    size_ = 0;
    for (const std::uint64_t k : live) {
      insert(k);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t stamp_ = 1;
  std::size_t size_ = 0;
};

}  // namespace

Partition strong_partition(const Lts& l, const Partition& initial) {
  const std::size_t n = l.num_states();
  if (initial.num_states() != n) {
    throw std::invalid_argument("strong_partition: partition size mismatch");
  }
  Partition p = initial;
  std::size_t num_blocks = p.normalize();
  std::vector<BlockId> cur(n);
  for (StateId s = 0; s < n; ++s) {
    cur[s] = p.block_of(s);
  }
  std::vector<BlockId> next(n);
  SignatureTable table;
  std::vector<SigElem> sig;
  while (true) {
    // Signature: old block (keeps refinement monotone), then the sorted set
    // of (action, successor block).
    table.reset(n);
    for (StateId s = 0; s < n; ++s) {
      sig.clear();
      sig.push_back(cur[s]);
      for (const OutEdge& e : l.out(s)) {
        sig.push_back(edge_elem(e.action, cur[e.dst]));
      }
      std::sort(sig.begin() + 1, sig.end());
      sig.erase(std::unique(sig.begin() + 1, sig.end()), sig.end());
      next[s] = table.intern(sig);
    }
    const bool stable = table.size() == num_blocks;
    num_blocks = table.size();
    cur.swap(next);
    if (stable) {
      break;
    }
  }
  return Partition(std::move(cur), num_blocks);
}

Partition strong_partition(const Lts& l) {
  return strong_partition(l, Partition(l.num_states()));
}

lts::Lts quotient_lts(const Lts& l, const Partition& p, bool skip_inert_tau) {
  const std::size_t n = l.num_states();
  const std::size_t nb = p.num_blocks();
  Lts q;
  q.add_states(nb);
  if (n > 0) {
    q.set_initial_state(p.block_of(l.initial_state()));
  }
  const auto dropped = [&](StateId s, const OutEdge& e) {
    return skip_inert_tau && lts::ActionTable::is_tau(e.action) &&
           p.block_of(s) == p.block_of(e.dst);
  };
  // Actions are interned in the order of their first kept edge in state
  // order, as a state-major scan would meet them.
  std::vector<ActionId> amap(l.actions().size(), lts::kNoState);
  for (StateId s = 0; s < n; ++s) {
    for (const OutEdge& e : l.out(s)) {
      if (amap[e.action] == lts::kNoState && !dropped(s, e)) {
        amap[e.action] = q.actions().intern(l.actions().name(e.action));
      }
    }
  }
  // Stable counting sort of states by block; each block's edges are
  // emitted in state order, so its out-list matches a state-major scan.
  std::vector<std::size_t> first(nb + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    ++first[p.block_of(s) + 1];
  }
  for (std::size_t b = 0; b < nb; ++b) {
    first[b + 1] += first[b];
  }
  std::vector<StateId> order(n);
  {
    std::vector<std::size_t> fill(first.begin(), first.end() - 1);
    for (StateId s = 0; s < n; ++s) {
      order[fill[p.block_of(s)]++] = s;
    }
  }
  StampedSet seen;  // (action, target block) pairs of the current block
  for (BlockId b = 0; b < nb; ++b) {
    seen.clear();
    for (std::size_t i = first[b]; i < first[b + 1]; ++i) {
      const StateId s = order[i];
      for (const OutEdge& e : l.out(s)) {
        if (dropped(s, e)) {
          continue;
        }
        const BlockId bt = p.block_of(e.dst);
        if (seen.insert((static_cast<std::uint64_t>(e.action) << 32) | bt)) {
          q.add_transition(b, amap[e.action], bt);
        }
      }
    }
  }
  return q;
}

namespace {

/// Tau-saturation: the weak transition relation as an explicit LTS.
Lts saturate(const Lts& l) {
  const std::size_t n = l.num_states();
  // Forward tau-closure of every state, flat: closure of s is
  // closure[begin[s] .. begin[s+1]), in DFS discovery order.
  std::vector<std::size_t> begin(n + 1, 0);
  std::vector<StateId> closure;
  {
    std::vector<StateId> visited_by(n, lts::kNoState);
    std::vector<StateId> stack;
    for (StateId s = 0; s < n; ++s) {
      stack.assign(1, s);
      visited_by[s] = s;
      while (!stack.empty()) {
        const StateId v = stack.back();
        stack.pop_back();
        closure.push_back(v);
        for (const OutEdge& e : l.out(v)) {
          if (lts::ActionTable::is_tau(e.action) && visited_by[e.dst] != s) {
            visited_by[e.dst] = s;
            stack.push_back(e.dst);
          }
        }
      }
      begin[s + 1] = closure.size();
    }
  }
  const auto closure_of = [&](StateId s) {
    return std::span<const StateId>(closure.data() + begin[s],
                                     closure.data() + begin[s + 1]);
  };
  Lts w;
  w.add_states(n);
  if (n > 0) {
    w.set_initial_state(l.initial_state());
  }
  std::vector<ActionId> amap(l.actions().size(), lts::kNoState);
  StampedSet seen;  // (action, target) pairs of the current state
  for (StateId s = 0; s < n; ++s) {
    // Weak tau moves: s =tau*=> u (including the empty move); a closure
    // holds each state once.
    for (const StateId u : closure_of(s)) {
      w.add_transition(s, lts::ActionTable::kTau, u);
    }
    // Weak visible moves: s =tau*=> s' -a-> t =tau*=> u.
    seen.clear();
    for (const StateId sp : closure_of(s)) {
      for (const OutEdge& e : l.out(sp)) {
        if (lts::ActionTable::is_tau(e.action)) {
          continue;
        }
        if (amap[e.action] == lts::kNoState) {
          amap[e.action] = w.actions().intern(l.actions().name(e.action));
        }
        for (const StateId u : closure_of(e.dst)) {
          if (seen.insert((static_cast<std::uint64_t>(e.action) << 32) | u)) {
            w.add_transition(s, amap[e.action], u);
          }
        }
      }
    }
  }
  return w;
}

}  // namespace

Partition weak_partition(const Lts& l) {
  if (l.num_states() == 0) {
    return Partition(0);
  }
  return strong_partition(saturate(l));
}

MinimizeResult minimize_weak(const Lts& l) {
  Partition p = weak_partition(l);
  Lts q = quotient_lts(l, p, /*skip_inert_tau=*/true);
  return MinimizeResult{std::move(q), std::move(p)};
}

MinimizeResult minimize_strong(const Lts& l) {
  Partition p = strong_partition(l);
  Lts q = quotient_lts(l, p, /*skip_inert_tau=*/false);
  return MinimizeResult{std::move(q), std::move(p)};
}

}  // namespace multival::bisim
