// Explicit-state LTS generation from a process Program (the role played by
// CAESAR in CADP).
//
// Runtime configurations are hash-consed immutable trees mirroring the
// static structure of the term (parallel / hiding / renaming / sequential
// contexts) with sequential leaves (term, environment).  The generator
// explores the configuration graph breadth-first and emits an Lts whose
// labels are "GATE !v1 !v2", "i" for internal actions, and "exit" for
// successful termination.
//
// Because configurations are immutable and hash-consed, the successors of a
// configuration are a pure function of its id.  The generator stores them
// for every operand of a parallel composition, so each port process of a
// global state is expanded once, not once per global state; the global
// state itself (root, hide/rename wrappers, top parallel node) is expanded
// exactly once by the search and is not stored.  Each concrete action
// (gate plus values) is interned once as an integer label id, whose text
// and Lts action id are built once: synchronisation tests compare ids.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::proc {

struct GenerateOptions {
  /// Hard cap on the number of distinct states; exceeded -> throws
  /// StateSpaceLimit.
  std::size_t max_states = 1u << 22;
  /// Bound on sequential unfolding (guards/choices/calls) when computing the
  /// transitions of a single state; exceeded -> throws UnguardedRecursion.
  std::size_t max_unfold_depth = 2048;
};

/// Thrown when the state space exceeds GenerateOptions::max_states.
struct StateSpaceLimit : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown on (probable) unguarded recursion, e.g. P := P [] a;Q.
struct UnguardedRecursion : std::runtime_error {
  using std::runtime_error::runtime_error;
};

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
struct DeadlockSearchResult {
  bool found = false;
  std::vector<std::string> trace;  ///< labels from the initial state
  std::size_t states_explored = 0;
};

[[nodiscard]] DeadlockSearchResult find_deadlock(
    const Program& program, std::string_view entry,
    std::vector<Value> args = {}, const GenerateOptions& options = {});

/// On-the-fly successor enumeration over hash-consed runtime configurations
/// — the role OPEN/CAESAR plays for CADP.  States are canonical byte
/// strings; two TermExplorer instances sharing the *same* Program object
/// and root term produce identical encodings, which is what lets the
/// parallel exploration engine (src/explore) hand each worker thread its
/// own TermExplorer while all workers agree on state identity.
///
/// Encodings embed interior pointers into the shared term tree: they are
/// process-local tokens, not a wire format.  `successors` only accepts
/// strings previously produced by `initial`/`successors` of an explorer
/// over the same program and root.
class TermExplorer {
 public:
  struct Move {
    std::string label;  ///< "i", "exit", or "GATE !v1 !v2"
    std::string dst;    ///< canonical encoding of the successor state
  };

  /// @p program and @p root must outlive the explorer.
  TermExplorer(const Program& program, TermPtr root,
               const GenerateOptions& options = {});
  TermExplorer(TermExplorer&&) noexcept;
  TermExplorer& operator=(TermExplorer&&) noexcept;
  ~TermExplorer();

  /// Canonical encoding of the initial configuration.
  [[nodiscard]] std::string initial();

  /// Transitions of the configuration encoded by @p state, in the
  /// deterministic order of the SOS rules.
  [[nodiscard]] std::vector<Move> successors(std::string_view state);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace multival::proc
