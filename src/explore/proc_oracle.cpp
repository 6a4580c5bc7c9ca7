// The lint-gated entry points to the process-calculus oracle
// (proc::oracle, whose clones share one leaf table).
#include <stdexcept>
#include <utility>

#include "analyze/analyze.hpp"
#include "explore/oracle.hpp"
#include "proc/generator.hpp"

namespace multival::explore {

OraclePtr term_oracle(std::shared_ptr<const proc::Program> program,
                      proc::TermPtr root,
                      const proc::GenerateOptions& options) {
  if (program == nullptr || root == nullptr) {
    throw std::invalid_argument("term_oracle: null program or root");
  }
  // Pre-flight lint: reject ill-formed models (undefined references, arity
  // mismatches, structural deadlocks, ...) in syntax-polynomial time before
  // committing to a potentially exponential exploration.  Throws
  // analyze::ModelError carrying the structured diagnostics.
  analyze::require_well_formed(*program, root);
  return proc::oracle(std::move(program), std::move(root), options);
}

OraclePtr proc_oracle(std::shared_ptr<const proc::Program> program,
                      std::string_view entry, std::vector<proc::Value> args,
                      const proc::GenerateOptions& options) {
  if (program == nullptr) {
    throw std::invalid_argument("proc_oracle: null program");
  }
  std::vector<proc::ExprPtr> arg_exprs;
  arg_exprs.reserve(args.size());
  for (const proc::Value v : args) {
    arg_exprs.push_back(proc::lit(v));
  }
  proc::TermPtr root = proc::call(entry, std::move(arg_exprs));
  return term_oracle(std::move(program), std::move(root), options);
}

OraclePtr proc_oracle(proc::Program program, std::string_view entry,
                      std::vector<proc::Value> args,
                      const proc::GenerateOptions& options) {
  return proc_oracle(
      std::make_shared<const proc::Program>(std::move(program)), entry,
      std::move(args), options);
}

}  // namespace multival::explore
