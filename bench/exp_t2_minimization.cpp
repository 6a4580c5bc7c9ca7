// Experiment T2 — "those LTSs can be verified using ... the equivalence
// checking tools (based on bisimulations)": reduction achieved by strong,
// branching and divergence-preserving-branching minimisation on the
// case-study models.
//
// T2b drives the same models through the default planned pipeline
// (compose::plan_program) and reports the peak intermediate each strategy
// holds in memory — the before/after of making generate–minimise–compose
// the default path.
#include <iostream>
#include <memory>

#include "bisim/equivalence.hpp"
#include "compose/plan.hpp"
#include "core/report.hpp"
#include "fame/coherence.hpp"
#include "fame/coherence_n.hpp"
#include "noc/mesh.hpp"
#include "noc/router.hpp"
#include "proc/process.hpp"
#include "xstream/queue_model.hpp"

int main() {
  using namespace multival;
  using namespace multival::core;

  Table t("T2: bisimulation minimisation",
          {"model", "states", "strong", "divbranching", "branching", "weak",
           "reduction"});

  const auto row = [&](const std::string& name, const lts::Lts& l) {
    const auto strong = bisim::minimize(l, bisim::Equivalence::kStrong);
    const auto divb =
        bisim::minimize(l, bisim::Equivalence::kDivergenceBranching);
    const auto branching =
        bisim::minimize(l, bisim::Equivalence::kBranching);
    const auto weak = bisim::minimize(l, bisim::Equivalence::kWeak);
    const double factor =
        static_cast<double>(l.num_states()) /
        static_cast<double>(weak.quotient.num_states());
    t.add_row({name, std::to_string(l.num_states()),
               std::to_string(strong.quotient.num_states()),
               std::to_string(divb.quotient.num_states()),
               std::to_string(branching.quotient.num_states()),
               std::to_string(weak.quotient.num_states()),
               fmt(factor, 1) + "x"});
  };

  {
    xstream::QueueConfig cfg;
    cfg.capacity = 2;
    row("xSTream queue (cap 2)", xstream::virtual_queue_lts(cfg));
    cfg.capacity = 3;
    row("xSTream queue (cap 3)", xstream::virtual_queue_lts(cfg));
  }
  row("FAUST router", noc::router_lts(0));
  // The minimisation inputs are the *monolithic* state spaces; the default
  // pipeline already returns minimal LTSs (see T2b below).
  row("FAUST mesh, 1 packet",
      noc::single_packet_lts(0, 3, /*hide_links=*/true, {},
                             compose::Strategy::kFlat));
  row("FAUST mesh, 2 flows",
      noc::stream_lts({{0, 3}, {1, 3}}, /*hide_links=*/true, {},
                      compose::Strategy::kFlat));
  row("FAME2 MSI system", fame::coherence_system_lts(fame::Protocol::kMsi));
  row("FAME2 MESI system", fame::coherence_system_lts(fame::Protocol::kMesi));
  row("FAME2 MESI, 3 nodes",
      fame::coherence_system_n_lts(fame::Protocol::kMesi, 3,
                                   compose::Strategy::kFlat));

  t.print(std::cout);
  std::cout << "\n";

  // T2b: peak intermediate held in memory, flat vs the planned pipeline
  // that is now the generators' default.
  Table peaks("T2b: peak intermediate states, monolithic vs planned "
              "pipeline (divbranching, canonical)",
              {"model", "flat peak", "planned peak", "final", "peak/final"});
  const auto peak_row = [&](const std::string& name,
                            std::shared_ptr<const proc::Program> p,
                            const std::string& entry) {
    const compose::PlanResult planned =
        compose::evaluate_plan(compose::plan_program(p, entry));
    const compose::PlanResult flat =
        compose::flat_reference(p, proc::call(entry));
    peaks.add_row(
        {name, std::to_string(flat.stats.peak_states),
         std::to_string(planned.stats.peak_states),
         std::to_string(planned.lts.num_states()),
         fmt(static_cast<double>(planned.stats.peak_states) /
                 static_cast<double>(planned.lts.num_states()),
             2) +
             "x"});
  };
  peak_row("FAUST mesh, 1 packet",
           std::make_shared<proc::Program>(
               noc::single_packet_program(0, 3, /*hide_links=*/true)),
           "Scenario");
  peak_row("FAME2 MSI, 3 nodes",
           std::make_shared<proc::Program>(
               fame::coherence_system_n_program(fame::Protocol::kMsi, 3)),
           "SystemN");
  peak_row("FAME2 MESI, 3 nodes",
           std::make_shared<proc::Program>(
               fame::coherence_system_n_program(fame::Protocol::kMesi, 3)),
           "SystemN");
  peaks.print(std::cout);
  return 0;
}
