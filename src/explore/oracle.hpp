// Generic on-the-fly state-space exploration: the SuccessorOracle interface
// plays the role of OPEN/CAESAR in CADP — any model that can name its
// initial state and enumerate the transitions of a given state becomes
// explorable without pre-building its LTS.
//
// A state is a vector of width() 32-bit words; the width is fixed per
// oracle.  The engine (engine.hpp) never interprets the words; it only
// hashes, stores and hands them back to the oracle.  A transition label is
// an id in the oracle's own label space, which reserves 0 for "i" and 1
// for "exit" (the lts::ActionTable convention); label() gives the text of
// any other id.  Oracles are cloneable: the parallel explorer gives every
// worker thread its own clone, and clones over the same model must agree
// on the words of every state (that is the whole contract that makes the
// shared state store work).  Label ids need not agree across clones.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "explore/state_store.hpp"
#include "imc/imc.hpp"
#include "lts/lts.hpp"
#include "proc/process.hpp"

namespace multival::explore {

/// A label id in an oracle's label space.
using LabelId = std::uint32_t;
inline constexpr LabelId kTau = 0;   ///< "i" in every oracle's label space
inline constexpr LabelId kExit = 1;  ///< "exit" in every oracle's label space

/// The outgoing transitions of one state, flat: step i has label label(i)
/// and destination dst(i), width() words.
class Steps {
 public:
  explicit Steps(std::size_t width = 0) : width_(width) {}

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] LabelId label(std::size_t i) const { return labels_[i]; }
  [[nodiscard]] StateView dst(std::size_t i) const {
    return {words_.data() + i * width_, width_};
  }

  /// Appends a step labelled @p label and returns its destination words,
  /// valid until the next push, for the caller to fill.
  std::span<Word> push(LabelId label) {
    labels_.push_back(label);
    words_.resize(words_.size() + width_);
    return {words_.data() + words_.size() - width_, width_};
  }
  void relabel(std::size_t i, LabelId label) { labels_[i] = label; }
  void clear() {
    labels_.clear();
    words_.clear();
  }

 private:
  std::size_t width_;
  std::vector<LabelId> labels_;
  std::vector<Word> words_;
};

class SuccessorOracle;
using OraclePtr = std::unique_ptr<SuccessorOracle>;

class SuccessorOracle {
 public:
  virtual ~SuccessorOracle() = default;

  /// Words per state, the same for every clone.  Called before any other
  /// member (an oracle may size its buffers, or build its model, here).
  [[nodiscard]] virtual std::size_t width() = 0;

  /// Writes the initial state into @p out (width() words).
  virtual void initial(std::span<Word> out) = 0;

  /// Appends the transitions of @p state to @p out (whose width is
  /// width()), in a deterministic order (the same for every clone).
  virtual void successors(StateView state, Steps& out) = 0;

  /// Text of a label id this clone has emitted; the view is valid until
  /// the next call of successors().
  [[nodiscard]] virtual std::string_view label(LabelId id) const = 0;

  /// Fresh oracle over the same model, agreeing on every state's words.
  /// Clones may be driven concurrently from different threads.
  [[nodiscard]] virtual OraclePtr clone() const = 0;
};

/// Replays an already-built LTS (width 1: the state id; labels are its
/// action ids).  @p l must outlive the oracle and all its clones.
[[nodiscard]] OraclePtr lts_oracle(const lts::Lts& l);

/// On-the-fly parallel composition `a |[sync_gates]| b` with the LOTOS
/// semantics of lts::parallel: full label equality on gates in the sync
/// set, "exit" always synchronises, "i" never does.  A state is a's words
/// followed by b's.
[[nodiscard]] OraclePtr product_oracle(OraclePtr a, OraclePtr b,
                                       std::vector<std::string> sync_gates);

/// Relabels every action whose gate is in @p gates to "i".
[[nodiscard]] OraclePtr hide_oracle(OraclePtr inner,
                                    std::vector<std::string> gates);

/// On-the-fly inert-tau chain contraction (the reduction compose::evaluate
/// applies to every intermediate it explores): every successor whose unique
/// outgoing transition is tau is replaced by the endpoint of its tau chain,
/// so inert chains are never stored by the engine at all.  Tau cycles made
/// of such states contract to their lexicographically smallest member —
/// comparing each word as its 4-byte little-endian string — which keeps a
/// tau self-loop: the reduction preserves divergence-preserving branching
/// bisimilarity.
/// Chain endpoints are memoised per oracle; clones recompute but, like
/// every oracle, agree on the words of every state.
[[nodiscard]] OraclePtr tau_compress(OraclePtr inner);

/// Views an IMC as an LTS-level oracle (width 1): interactive transitions
/// keep their label, Markovian transitions become "rate r" / "LABEL; rate
/// r" labels (the imc_io convention), so an on-the-fly composition of IMCs
/// can be streamed to disk and re-read as an IMC.  @p m must outlive the
/// oracle.
[[nodiscard]] OraclePtr imc_oracle(const imc::Imc& m);

/// Explores process `entry(args)` of @p program on the fly (see
/// proc::oracle), after rejecting an ill-formed model with
/// analyze::require_well_formed.  The state cap is the engine's
/// (ExploreOptions::max_states); only options.max_unfold_depth applies.
[[nodiscard]] OraclePtr proc_oracle(
    std::shared_ptr<const proc::Program> program, std::string_view entry,
    std::vector<proc::Value> args = {},
    const proc::GenerateOptions& options = {});

/// Convenience overload taking the program by value.
[[nodiscard]] OraclePtr proc_oracle(proc::Program program,
                                    std::string_view entry,
                                    std::vector<proc::Value> args = {},
                                    const proc::GenerateOptions& options = {});

/// Explores an anonymous closed behaviour term of @p program.
[[nodiscard]] OraclePtr term_oracle(
    std::shared_ptr<const proc::Program> program, proc::TermPtr root,
    const proc::GenerateOptions& options = {});

}  // namespace multival::explore
