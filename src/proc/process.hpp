// Behaviour terms of the LOTOS-like process calculus and the Program
// container holding named, parameterised process definitions.
//
// Supported operators (LOTOS syntax in comments):
//
//   stop                                  stop
//   exit                                  exit
//   prefix(G, {offers}, P)                G !e ?x:lo..hi ; P
//   guard(c, P)                           [c] -> P
//   choice({P1, P2, ...})                 P1 [] P2 [] ...
//   par(P, {G...}, Q)                     P |[G...]| Q
//   interleaving(P, Q)                    P ||| Q
//   hide({G...}, P)                       hide G... in P
//   rename({{G,H}}, P)                    P [H/G]
//   seq(P, Q)                             P >> Q
//   call("Name", {args})                  Name [gates are global] (args)
//
// Value offers: emit(e) produces "!v"; accept("x", lo, hi) enumerates the
// range and binds x (visible in later offers of the same action and in the
// continuation).  Synchronisation matches full labels, which implements
// LOTOS value negotiation (!v against ?x binds x:=v; ?x against ?y explores
// the intersection of the ranges).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "proc/expr.hpp"

namespace multival::proc {

class Term;
using TermPtr = std::shared_ptr<const Term>;

/// A value offer of an action prefix.
struct Offer {
  enum class Kind { kEmit, kAccept };
  Kind kind = Kind::kEmit;
  ExprPtr expr;      // kEmit
  std::string var;   // kAccept
  Value lo = 0;      // kAccept range (inclusive)
  Value hi = 0;
};

[[nodiscard]] Offer emit(ExprPtr e);
[[nodiscard]] Offer accept(std::string_view var, Value lo, Value hi);

class Term {
 public:
  enum class Kind {
    kStop,
    kExit,
    kPrefix,
    kGuard,
    kChoice,
    kPar,
    kHide,
    kRename,
    kSeq,
    kCall,
  };

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const std::string& gate() const { return gate_; }
  [[nodiscard]] const std::vector<Offer>& offers() const { return offers_; }
  [[nodiscard]] const ExprPtr& condition() const { return cond_; }
  [[nodiscard]] const std::vector<TermPtr>& children() const {
    return children_;
  }
  [[nodiscard]] const std::vector<std::string>& gates() const {
    return gates_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& gate_map() const {
    return gate_map_;
  }
  [[nodiscard]] const std::string& callee() const { return gate_; }
  [[nodiscard]] const std::vector<ExprPtr>& args() const { return args_; }

  /// Sorted free value variables (cached at construction).
  [[nodiscard]] const std::vector<std::string>& free_vars() const {
    return free_vars_;
  }

  /// Renders the term in the concrete syntax accepted by proc/parser.hpp
  /// (fully parenthesised).
  [[nodiscard]] std::string to_string() const;

  static TermPtr make(Kind k, std::string gate, std::vector<Offer> offers,
                      ExprPtr cond, std::vector<TermPtr> children,
                      std::vector<std::string> gates,
                      std::map<std::string, std::string> gate_map,
                      std::vector<ExprPtr> args);

 private:
  Kind kind_ = Kind::kStop;
  std::string gate_;                           // kPrefix gate / kCall callee
  std::vector<Offer> offers_;                  // kPrefix
  ExprPtr cond_;                               // kGuard
  std::vector<TermPtr> children_;              // operands
  std::vector<std::string> gates_;             // kPar sync set / kHide set
  std::map<std::string, std::string> gate_map_;  // kRename old -> new
  std::vector<ExprPtr> args_;                  // kCall
  std::vector<std::string> free_vars_;
};

// ---- term builders -----------------------------------------------------------

[[nodiscard]] TermPtr stop();
[[nodiscard]] TermPtr exit_();
[[nodiscard]] TermPtr prefix(std::string_view gate, std::vector<Offer> offers,
                             TermPtr cont);
[[nodiscard]] TermPtr prefix(std::string_view gate, TermPtr cont);
[[nodiscard]] TermPtr guard(ExprPtr cond, TermPtr body);
[[nodiscard]] TermPtr choice(std::vector<TermPtr> branches);
[[nodiscard]] TermPtr par(TermPtr l, std::vector<std::string> sync_gates,
                          TermPtr r);
[[nodiscard]] TermPtr interleaving(TermPtr l, TermPtr r);
[[nodiscard]] TermPtr hide(std::vector<std::string> gates, TermPtr body);
[[nodiscard]] TermPtr rename(std::map<std::string, std::string> gate_map,
                             TermPtr body);
[[nodiscard]] TermPtr seq(TermPtr first, TermPtr then);
[[nodiscard]] TermPtr call(std::string_view name,
                           std::vector<ExprPtr> args = {});

// ---- program -------------------------------------------------------------------

/// A set of named, parameterised process definitions (mutually recursive).
class Program {
 public:
  /// Renders the whole program in parseable concrete syntax.
  [[nodiscard]] std::string to_string() const;

  /// Defines process @p name with value parameters @p params.  Redefinition
  /// throws.
  void define(std::string_view name, std::vector<std::string> params,
              TermPtr body);

  struct Definition {
    std::vector<std::string> params;
    TermPtr body;
  };

  [[nodiscard]] const Definition& definition(std::string_view name) const;
  [[nodiscard]] bool has_definition(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return defs_.size(); }

  /// All definitions in name order.
  [[nodiscard]] const std::map<std::string, Definition, std::less<>>&
  definitions() const {
    return defs_;
  }

 private:
  std::map<std::string, Definition, std::less<>> defs_;
};

// ---- generation options ----------------------------------------------------------

/// Options of LTS generation from a Program (proc/generator.hpp) and of its
/// on-the-fly oracle (explore::proc_oracle).
struct GenerateOptions {
  /// Hard cap on the number of distinct states; exceeded -> throws
  /// StateSpaceLimit (explore::LimitExceeded).
  std::size_t max_states = 1u << 22;
  /// Bound on sequential unfolding (guards/choices/calls) when computing the
  /// transitions of a single state; exceeded -> throws UnguardedRecursion.
  std::size_t max_unfold_depth = 2048;
};

/// Thrown on (probable) unguarded recursion, e.g. P := P [] a;Q.
struct UnguardedRecursion : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace multival::proc
