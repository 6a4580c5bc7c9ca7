// Strong bisimulation minimisation by signature-based partition refinement
// (Kanellakis–Smolka style with hashed signatures).
//
// Each round builds every state's signature (old block, then the sorted set
// of (action, successor block) elements) in one reused scratch buffer and
// interns it in a SignatureTable (partition.hpp): a flat arena of distinct
// signatures under an open-addressing index.  New block ids are handed out
// in first-insertion order over the states, so block numbering depends only
// on state order.  Refinement stops when a round creates no new block.
//
// The quotient is built block by block: a stable counting sort of the
// states by block, then one (action, target block) dedup set cleared per
// block.  Labels are interned in the order of their first kept edge in state
// order, so the quotient is the one a state-major scan would produce.
#pragma once

#include "bisim/partition.hpp"
#include "lts/lts.hpp"

namespace multival::bisim {

/// Quotient LTS together with the partition that produced it.
struct MinimizeResult {
  lts::Lts quotient;
  Partition partition;
};

/// Coarsest strong-bisimulation partition refining @p initial.
[[nodiscard]] Partition strong_partition(const lts::Lts& l,
                                         const Partition& initial);

/// Coarsest strong-bisimulation partition (trivial initial partition).
[[nodiscard]] Partition strong_partition(const lts::Lts& l);

/// Minimal LTS modulo strong bisimulation.
[[nodiscard]] MinimizeResult minimize_strong(const lts::Lts& l);

/// Coarsest weak-bisimulation (observational-equivalence) partition: strong
/// refinement over the tau-saturated transition relation
/// (s =tau*=> a =tau*=> t for visible a; s =tau*=> t for tau).
[[nodiscard]] Partition weak_partition(const lts::Lts& l);

/// Minimal LTS modulo weak bisimulation (inert tau transitions dropped).
[[nodiscard]] MinimizeResult minimize_weak(const lts::Lts& l);

/// Builds the quotient LTS of @p l under @p p: one state per block, one
/// transition (B,a,B') per pair of related blocks.  When @p skip_inert_tau is
/// true, tau self-block transitions are dropped (branching quotients).
[[nodiscard]] lts::Lts quotient_lts(const lts::Lts& l, const Partition& p,
                                    bool skip_inert_tau);

}  // namespace multival::bisim
