// Branching bisimulation minimisation (Groote–Vaandrager style, implemented
// with tau-SCC collapse followed by signature refinement in topological
// order of the inert-tau DAG).
//
// Data layout: the tau-SCCs come from the graph kernel (core/graph.hpp),
// and the contracted graph (one node per tau-SCC) keeps its edges in one
// CSR array.  The kernel numbers components in reverse topological order,
// so every inert tau edge leads to a lower component, and one pass per
// round over the components in ascending id order suffices: a component's
// signature only reads the signatures of lower components, already final
// in that pass.  Each signature is interned in a SignatureTable
// (partition.hpp) as soon as it is built, so new block ids come in
// first-insertion order over the components.
//
// The divergence-sensitive variant keeps a "divergent" marker on states
// lying on a tau cycle, so that livelocks are preserved by minimisation
// (divergence-preserving branching bisimulation in the sense used by CADP's
// BCG_MIN "divbranching" option).
#pragma once

#include "bisim/partition.hpp"
#include "bisim/strong.hpp"
#include "lts/lts.hpp"

namespace multival::bisim {

struct BranchingOptions {
  bool divergence_sensitive = false;
};

/// Coarsest branching-bisimulation partition refining @p initial.
[[nodiscard]] Partition branching_partition(const lts::Lts& l,
                                            const Partition& initial,
                                            const BranchingOptions& opts = {});

/// Coarsest branching-bisimulation partition (trivial initial partition).
[[nodiscard]] Partition branching_partition(const lts::Lts& l,
                                            const BranchingOptions& opts = {});

/// Minimal LTS modulo (divergence-preserving) branching bisimulation.
/// Inert tau transitions are removed; with divergence sensitivity, divergent
/// blocks keep a tau self-loop.
[[nodiscard]] MinimizeResult minimize_branching(
    const lts::Lts& l, const BranchingOptions& opts = {});

}  // namespace multival::bisim
