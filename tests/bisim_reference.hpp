// Reference minimisation: the plain vector-keyed signature refinement the
// bisim library was first written with, kept only as a test oracle.
//
// Every function here is a deliberately simple transcription (one
// std::vector signature per state per pass, node-based hash maps keyed by
// whole signatures, state-major quotient with per-action dedup sets).  The
// library's allocation-free versions must reproduce its block numbering and
// its quotients byte for byte.
#pragma once

#include "bisim/branching.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/partition.hpp"
#include "bisim/strong.hpp"
#include "lts/lts.hpp"

namespace multival::bisim::testing {

[[nodiscard]] Partition reference_strong_partition(const lts::Lts& l,
                                                   const Partition& initial);

[[nodiscard]] Partition reference_weak_partition(const lts::Lts& l);

[[nodiscard]] Partition reference_branching_partition(
    const lts::Lts& l, const Partition& initial, const BranchingOptions& opts);

[[nodiscard]] lts::Lts reference_quotient(const lts::Lts& l,
                                          const Partition& p,
                                          bool skip_inert_tau);

/// minimize(l, e) through the reference partition and quotient.
[[nodiscard]] MinimizeResult reference_minimize(const lts::Lts& l,
                                                Equivalence e);

}  // namespace multival::bisim::testing
