#include "lts/analysis.hpp"

#include "core/graph.hpp"

namespace multival::lts {

std::vector<bool> reachable_states(const Lts& l) {
  std::vector<bool> seen(l.num_states(), false);
  if (l.num_states() == 0) {
    return seen;
  }
  std::vector<StateId> stack{l.initial_state()};
  seen[l.initial_state()] = true;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const OutEdge& e : l.out(s)) {
      if (!seen[e.dst]) {
        seen[e.dst] = true;
        stack.push_back(e.dst);
      }
    }
  }
  return seen;
}

TrimResult trim(const Lts& l) {
  const std::vector<bool> seen = reachable_states(l);
  TrimResult r;
  r.old_to_new.assign(l.num_states(), kNoState);
  // Copy the action table wholesale so ids stay valid.
  for (StateId s = 0; s < l.num_states(); ++s) {
    if (seen[s]) {
      r.old_to_new[s] = r.lts.add_state();
    } else {
      ++r.removed_states;
    }
  }
  for (ActionId a = 0; a < l.actions().size(); ++a) {
    r.lts.actions().intern(l.actions().name(a));
  }
  for (StateId s = 0; s < l.num_states(); ++s) {
    if (!seen[s]) {
      continue;
    }
    for (const OutEdge& e : l.out(s)) {
      r.lts.add_transition(r.old_to_new[s], e.action, r.old_to_new[e.dst]);
    }
  }
  if (l.num_states() > 0) {
    r.lts.set_initial_state(r.old_to_new[l.initial_state()]);
  }
  return r;
}

std::vector<StateId> deadlock_states(const Lts& l) {
  const std::vector<bool> seen = reachable_states(l);
  std::vector<StateId> out;
  for (StateId s = 0; s < l.num_states(); ++s) {
    if (seen[s] && l.is_deadlock(s)) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<StateId> divergent_states(const Lts& l) {
  const auto is_tau_edge = [](const OutEdge& e) {
    return ActionTable::is_tau(e.action);
  };
  const core::Components scc = core::strongly_connected_components(
      core::Digraph::build(l.num_states(), [&](auto&& emit) {
        for (StateId s = 0; s < l.num_states(); ++s) {
          for (const OutEdge& e : l.out(s)) {
            if (is_tau_edge(e)) {
              emit(s, e.dst);
            }
          }
        }
      }));
  // A state is on a tau cycle iff its tau-SCC has more than one member, or it
  // has a tau self-loop.
  std::vector<std::size_t> comp_size(scc.num_components, 0);
  for (StateId s = 0; s < l.num_states(); ++s) {
    ++comp_size[scc.component_of[s]];
  }
  const std::vector<bool> seen = reachable_states(l);
  std::vector<StateId> out;
  for (StateId s = 0; s < l.num_states(); ++s) {
    if (!seen[s]) {
      continue;
    }
    bool divergent = comp_size[scc.component_of[s]] > 1;
    if (!divergent) {
      for (const OutEdge& e : l.out(s)) {
        if (is_tau_edge(e) && e.dst == s) {
          divergent = true;
          break;
        }
      }
    }
    if (divergent) {
      out.push_back(s);
    }
  }
  return out;
}

bool has_tau_cycle(const Lts& l) { return !divergent_states(l).empty(); }

std::vector<ActionId> used_actions(const Lts& l) {
  std::vector<bool> used(l.actions().size(), false);
  for (StateId s = 0; s < l.num_states(); ++s) {
    for (const OutEdge& e : l.out(s)) {
      used[e.action] = true;
    }
  }
  std::vector<ActionId> out;
  for (ActionId a = 0; a < used.size(); ++a) {
    if (used[a]) {
      out.push_back(a);
    }
  }
  return out;
}

}  // namespace multival::lts
