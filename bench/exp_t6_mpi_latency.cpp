// Experiment T6 — "Bull was able to predict the latency of an MPI benchmark
// in different topologies, different software implementations of the MPI
// primitives, and different cache coherency protocols": the full 12-point
// design space.
#include <iostream>

#include <memory>

#include "compose/plan.hpp"
#include "core/report.hpp"
#include "fame/mpi.hpp"
#include "markov/absorption.hpp"
#include "proc/process.hpp"

int main() {
  using namespace multival;
  using namespace multival::fame;

  core::Table t("T6: MPI ping-pong round latency (2-node FAME2 model)",
                {"topology", "coherence", "MPI impl", "round latency",
                 "p95 (4 rounds)", "vs best"});
  struct RowData {
    Topology topo;
    Protocol proto;
    MpiImpl impl;
    double latency;
    double p95;
  };
  std::vector<RowData> rows;
  double best = 1e100;
  for (const Topology topo :
       {Topology::kBus, Topology::kRing, Topology::kCrossbar}) {
    for (const Protocol proto : {Protocol::kMsi, Protocol::kMesi}) {
      for (const MpiImpl impl : {MpiImpl::kEager, MpiImpl::kRendezvous}) {
        PingPongConfig cfg;
        cfg.topology = topo;
        cfg.protocol = proto;
        cfg.impl = impl;
        cfg.rounds = 4;
        const PingPongResult r = pingpong_latency(cfg);
        rows.push_back({topo, proto, impl, r.round_latency, r.p95_total});
        best = std::min(best, r.round_latency);
      }
    }
  }
  for (const RowData& r : rows) {
    t.add_row({to_string(r.topo), to_string(r.proto), to_string(r.impl),
               core::fmt(r.latency), core::fmt(r.p95),
               core::fmt(r.latency / best, 2) + "x"});
  }
  t.print(std::cout);
  std::cout << "(shape: crossbar < ring < bus per column; eager < rendezvous;"
               " MESI <= MSI — the orderings the flow must predict)\n\n";

  core::Table bar("T6b: MPI barrier round latency",
                  {"topology", "coherence", "round latency"});
  for (const Topology topo :
       {Topology::kBus, Topology::kRing, Topology::kCrossbar}) {
    for (const Protocol proto : {Protocol::kMsi, Protocol::kMesi}) {
      BarrierConfig cfg;
      cfg.topology = topo;
      cfg.protocol = proto;
      cfg.rounds = 4;
      bar.add_row({to_string(topo), to_string(proto),
                   core::fmt(barrier_latency(cfg).round_latency)});
    }
  }
  bar.print(std::cout);
  std::cout << "(the barrier's two concurrent flag transactions make it "
               "cheaper than a serialised ping-pong round)\n\n";

  // T6c: the pipeline behind the numbers above — peak intermediate states
  // of the default planned strategy vs the monolithic baseline, on the
  // eager/MSI/bus model (all 12 points share the structure).
  core::Table peaks("T6c: ping-pong generation, monolithic vs planned",
                    {"strategy", "peak states", "final states"});
  PingPongConfig cfg;
  cfg.rounds = 4;
  const auto program = std::make_shared<const proc::Program>(
      pingpong_program(cfg));
  const compose::PlanResult planned =
      compose::evaluate_plan(compose::plan_program(program, "PingPong"));
  const compose::PlanResult flat =
      compose::flat_reference(program, proc::call("PingPong"));
  peaks.add_row({"monolithic", std::to_string(flat.stats.peak_states),
                 std::to_string(flat.lts.num_states())});
  peaks.add_row({"planned", std::to_string(planned.stats.peak_states),
                 std::to_string(planned.lts.num_states())});
  peaks.print(std::cout);
  return 0;
}
