// Explicit-state LTS generation from a process Program (the role played by
// CAESAR in CADP), run on the exploration engine (src/explore).
//
// Runtime configurations are hash-consed immutable trees mirroring the
// static structure of the term (parallel / hiding / renaming / sequential
// contexts) with sequential leaves (term, environment).  The root term's
// static skeleton — the par / hide / rename nodes its initial
// configuration has above everything else — never changes, so a global
// state is a fixed-width vector holding one configuration id per skeleton
// leaf.  Skeleton leaves are any configuration below the skeleton,
// including `>>` contexts and parallel compositions that appear only
// after some steps.  Labels are "GATE !v1 !v2", "i" for internal actions
// and "exit" for successful termination.
//
// One leaf table, shared by every clone of an oracle and read by worker
// threads only on a per-worker cache miss, holds the hash-consed
// configurations, the successor list of every leaf configuration (computed
// once, and published only once complete, so an exception leaves no entry
// behind) and the label table: each concrete action is interned once as an
// integer id.  The skeleton's own moves are combined per state, on
// vectors, without locking.  generate, generate_term and find_deadlock are
// calls of the engine over that oracle, with one worker and an exact
// store.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "explore/engine.hpp"
#include "explore/oracle.hpp"
#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::proc {

/// Thrown when the state space exceeds GenerateOptions::max_states: the
/// engine's one state-cap exception.
using StateSpaceLimit = explore::LimitExceeded;

/// Generates the LTS of process @p entry called with @p args.
[[nodiscard]] lts::Lts generate(const Program& program,
                                std::string_view entry,
                                std::vector<Value> args = {},
                                const GenerateOptions& options = {});

/// Generates the LTS of an anonymous behaviour term (closed).
[[nodiscard]] lts::Lts generate_term(const Program& program, const TermPtr& t,
                                     const GenerateOptions& options = {});

/// On-the-fly deadlock search: explores breadth-first and stops at the
/// first deadlocked state, without completing the state space.  The trace
/// is shortest (by transition count).
using DeadlockSearchResult = explore::DeadlockSearch;

[[nodiscard]] DeadlockSearchResult find_deadlock(
    const Program& program, std::string_view entry,
    std::vector<Value> args = {}, const GenerateOptions& options = {});

/// The successor oracle of closed term @p root of @p program, without the
/// lint gate of explore::term_oracle.  Clones share one leaf table.
/// options.max_states is not applied here: the engine enforces its own.
[[nodiscard]] explore::OraclePtr oracle(std::shared_ptr<const Program> program,
                                        TermPtr root,
                                        const GenerateOptions& options = {});

}  // namespace multival::proc
