// Basic graph analyses over LTSs: reachability trimming, deadlock and
// livelock (tau-cycle) detection.
#pragma once

#include <cstddef>
#include <vector>

#include "lts/lts.hpp"

namespace multival::lts {

/// Result of restricting an LTS to its reachable part.
struct TrimResult {
  Lts lts;
  /// old state id -> new state id, or kNoState if unreachable.
  std::vector<StateId> old_to_new;
  std::size_t removed_states = 0;
};

/// Returns the sub-LTS reachable from the initial state.
[[nodiscard]] TrimResult trim(const Lts& l);

/// States reachable from the initial state (bitmap indexed by state id).
[[nodiscard]] std::vector<bool> reachable_states(const Lts& l);

/// All deadlock states (no outgoing transition) reachable from the initial
/// state.
[[nodiscard]] std::vector<StateId> deadlock_states(const Lts& l);

/// True if some reachable state lies on a cycle of invisible ("i")
/// transitions — a potential livelock / divergence.
[[nodiscard]] bool has_tau_cycle(const Lts& l);

/// All reachable states lying on a tau cycle.
[[nodiscard]] std::vector<StateId> divergent_states(const Lts& l);

/// Sorted, deduplicated list of action ids actually used by transitions.
[[nodiscard]] std::vector<ActionId> used_actions(const Lts& l);

}  // namespace multival::lts
