// Tests for sim/, compose/ and core/ — the integrated flows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "compose/pipeline.hpp"
#include "compose/plan.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "lts/lts_io.hpp"
#include "markov/absorption.hpp"
#include "markov/steady.hpp"
#include "phase/phase_type.hpp"
#include "proc/generator.hpp"
#include "proc/process.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace multival;
using namespace multival::proc;

// --- report helpers ------------------------------------------------------------

TEST(Report, TableFormats) {
  core::Table t("demo", {"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(core::Table("x", {}), std::invalid_argument);
}

TEST(Report, NumberFormats) {
  EXPECT_EQ(core::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(core::fmt(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_NE(core::fmt_sci(0.000012).find("e"), std::string::npos);
  EXPECT_EQ(core::fmt_ci(1.0, 0.25, 2), "1.00 (+/- 0.25)");
}

// --- simulator vs solver ----------------------------------------------------------

TEST(Simulator, SteadyRewardMatchesSolver) {
  markov::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 0, 3.0);
  const std::vector<double> reward{0.0, 1.0};  // P[state 1]
  const auto pi = markov::steady_state(c);
  sim::SimOptions opts;
  opts.horizon = 4000.0;
  const sim::Estimate e = sim::simulate_steady_reward(c, reward, opts);
  EXPECT_NEAR(e.mean, pi[1], 0.02);
  EXPECT_GT(e.half_width, 0.0);
  EXPECT_TRUE(e.contains(pi[1]));
}

TEST(Simulator, ThroughputMatchesSolver) {
  markov::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 2.0, "go");
  c.add_transition(1, 0, 2.0, "back");
  const auto pi = markov::steady_state(c);
  const double exact = markov::throughput(c, pi, "go");
  sim::SimOptions opts;
  opts.horizon = 4000.0;
  const sim::Estimate e = sim::simulate_throughput(c, "go", opts);
  EXPECT_NEAR(e.mean, exact, 0.05);
}

TEST(Simulator, AbsorptionMatchesSolver) {
  markov::Ctmc c;
  c.add_states(3);
  c.add_transition(0, 1, 2.0);
  c.add_transition(1, 2, 2.0);
  const double exact = markov::expected_absorption_time_from_initial(c);
  sim::SimOptions opts;
  opts.replications = 4000;
  const sim::Estimate e = sim::simulate_absorption_time(c, opts);
  EXPECT_NEAR(e.mean, exact, 0.05);
  EXPECT_TRUE(e.contains(exact));
}

TEST(Simulator, TransientMatchesSolver) {
  markov::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  const double exact = 1.0 - std::exp(-0.7);
  sim::SimOptions opts;
  opts.replications = 5000;
  const sim::Estimate e =
      sim::simulate_transient_probability(c, {false, true}, 0.7, opts);
  EXPECT_NEAR(e.mean, exact, 0.03);
}

TEST(Simulator, DeterministicSeeding) {
  markov::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, 1.0);
  c.add_transition(1, 0, 1.0);
  const std::vector<double> r{1.0, 0.0};
  const auto a = sim::simulate_steady_reward(c, r);
  const auto b = sim::simulate_steady_reward(c, r);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

// --- composition pipeline ------------------------------------------------------------

/// A pipeline of @p cells one-place buffers over values 0..max_value.
Program pipeline_program(int cells, int max_value = 1) {
  Program p;
  for (int i = 0; i < cells; ++i) {
    const std::string in = i == 0 ? "IN" : "M" + std::to_string(i);
    const std::string out =
        i == cells - 1 ? "OUT" : "M" + std::to_string(i + 1);
    p.define("Cell" + std::to_string(i), {},
             prefix(in, {accept("x", 0, max_value)},
                    prefix(out, {emit(evar("x"))},
                           call("Cell" + std::to_string(i)))));
  }
  return p;
}

TEST(Pipeline, CompositionalEqualsMonolithic) {
  const Program p = pipeline_program(3);
  auto cell = [&p](int i) {
    return compose::leaf(
        [&p, i]() { return generate(p, "Cell" + std::to_string(i)); },
        "cell" + std::to_string(i));
  };
  // ((c0 |[M1]| c1) min) |[M2]| c2, hide M1 M2.
  auto tree = compose::hide_gates(
      {"M1", "M2"},
      compose::compose2(
          compose::minimize_here(compose::compose2(cell(0), {"M1"}, cell(1))),
          {"M2"}, cell(2)));
  const auto cmp = compose::compare_strategies(tree);
  EXPECT_TRUE(cmp.equivalent);
  EXPECT_LE(cmp.compositional.peak_states, cmp.monolithic.peak_states * 2);
  EXPECT_FALSE(cmp.compositional.steps.empty());
}

TEST(Pipeline, MinimizeNodeShrinks) {
  const Program p = pipeline_program(2);
  auto tree = compose::minimize_here(compose::hide_gates(
      {"M1"},
      compose::compose2(
          compose::leaf([&p]() { return generate(p, "Cell0"); }, "c0"),
          {"M1"},
          compose::leaf([&p]() { return generate(p, "Cell1"); }, "c1"))));
  compose::EvalStats stats;
  const lts::Lts reduced = compose::evaluate(tree, true, &stats);
  const lts::Lts full = compose::evaluate(tree, false);
  EXPECT_LT(reduced.num_states(), full.num_states());
}

// The F8 exhibit's hand-built trees: cell0, then per further cell i
// min(hide Mi in (acc |[Mi]| cell_i)), buffers over values 0..2.
compose::NodePtr f8_tree(const Program& p, int cells) {
  auto cell = [&p](int i) {
    return compose::leaf(
        [&p, i]() { return generate(p, "Cell" + std::to_string(i)); },
        "cell" + std::to_string(i));
  };
  compose::NodePtr acc = cell(0);
  for (int i = 1; i < cells; ++i) {
    const std::string mid = "M" + std::to_string(i);
    acc = compose::minimize_here(
        compose::hide_gates({mid}, compose::compose2(acc, {mid}, cell(i))));
  }
  return acc;
}

TEST(Pipeline, F8BufferTreesKeepTheirNumbers) {
  // Monolithic peaks are 4^cells; the minimal pipeline has (3^(cells+1)-1)/2
  // states.  The compositional peak may only fall below the values the
  // stored-product evaluation reached (16/52/160/484/1456).
  const std::size_t monolithic[] = {16, 64, 256, 1024, 4096};
  const std::size_t final_states[] = {13, 40, 121, 364, 1093};
  const std::size_t compositional_max[] = {16, 52, 160, 484, 1456};
  for (int cells = 2; cells <= 6; ++cells) {
    const Program p = pipeline_program(cells, 2);
    const auto cmp = compose::compare_strategies(f8_tree(p, cells));
    const std::size_t k = static_cast<std::size_t>(cells - 2);
    EXPECT_EQ(cmp.monolithic.peak_states, monolithic[k]) << cells << " cells";
    ASSERT_FALSE(cmp.compositional.steps.empty());
    EXPECT_EQ(cmp.compositional.steps.back().states_after, final_states[k])
        << cells << " cells";
    EXPECT_TRUE(cmp.equivalent) << cells << " cells";
    EXPECT_LE(cmp.compositional.peak_states, compositional_max[k])
        << cells << " cells";
  }
}

TEST(Pipeline, BufferPlanIsIdenticalAcrossWorkerCounts) {
  // The F8b buffer case: hide M1..M5 in Cell0 |[M1]| Cell1 ... |[M5]| Cell5.
  const auto p = std::make_shared<const Program>(pipeline_program(6, 2));
  TermPtr root = call("Cell0", {});
  std::vector<std::string> gates;
  for (int i = 1; i < 6; ++i) {
    const std::string mid = "M" + std::to_string(i);
    root = par(root, {mid}, call("Cell" + std::to_string(i), {}));
    gates.push_back(mid);
  }
  const compose::Plan plan = compose::plan_term(p, hide(gates, root));
  ASSERT_TRUE(plan.planned) << plan.fallback_reason;
  const compose::PlanResult one = compose::evaluate_plan(plan, {1});
  EXPECT_EQ(one.lts.num_states(), 1093u);
  for (const unsigned workers : {2u, 4u}) {
    const compose::PlanResult many = compose::evaluate_plan(plan, {workers});
    EXPECT_EQ(lts::to_aut(many.lts), lts::to_aut(one.lts)) << workers;
    EXPECT_EQ(many.stats.peak_states, one.stats.peak_states) << workers;
  }
}

TEST(Pipeline, NullNodesRejected) {
  EXPECT_THROW((void)compose::evaluate(nullptr, true), std::invalid_argument);
  EXPECT_THROW((void)compose::leaf(std::function<lts::Lts()>{}, "x"),
               std::invalid_argument);
}

// --- verification flow -----------------------------------------------------------------

TEST(Flow, VerifyHealthyModel) {
  Program p;
  p.define("Ping", {}, prefix("PING", prefix("PONG", call("Ping"))));
  const auto report = core::verify(generate(p, "Ping"),
                                   {{"ping possible", mc::can_do(mc::act("PING"))}});
  EXPECT_TRUE(report.all_hold());
  EXPECT_EQ(report.raw.states, 2u);
  EXPECT_NE(report.to_string().find("PASS"), std::string::npos);
}

TEST(Flow, VerifyFindsDeadlock) {
  Program p;
  p.define("Dead", {}, prefix("A", stop()));
  const auto report = core::verify(generate(p, "Dead"));
  EXPECT_FALSE(report.all_hold());
  EXPECT_NE(report.to_string().find("FAIL"), std::string::npos);
}

// --- performance flow --------------------------------------------------------------------

TEST(Flow, DecorateWithRatesMakesMarkovian) {
  Program p;
  p.define("Loop", {}, prefix("WORK", prefix("REST", call("Loop"))));
  const lts::Lts l = generate(p, "Loop");
  const imc::Imc m = core::decorate_with_rates(l, {{"WORK", 2.0},
                                                   {"REST", 1.0}});
  EXPECT_EQ(m.num_markovian(), 2u);
  EXPECT_EQ(m.num_interactive(), 0u);
  const auto closed = core::close_model(m);
  const auto pi = markov::steady_state(closed.ctmc);
  // Utilisation of WORK state: rest-rate/(sum), classic two-state formula.
  EXPECT_NEAR(markov::throughput(closed.ctmc, pi, "WORK*"),
              markov::throughput(closed.ctmc, pi, "REST*"), 1e-9);
}

TEST(Flow, DecorateRejectsBadRate) {
  lts::Lts l;
  l.add_state();
  EXPECT_THROW((void)core::decorate_with_rates(l, {{"A", -1.0}}),
               std::invalid_argument);
}

TEST(Flow, InsertDelaysMatchesDirectDecoration) {
  // M/M/1/1: arrivals at rate 1 (delay between arrivals), service rate 2.
  // Built constraint-orientedly and checked against the closed form.
  Program p;
  p.define("Station", {},
           prefix("ARRIVE_END",
                  prefix("SERVE_START", prefix("SERVE_END", call("Station")))));
  // ARRIVE_END is driven by an exponential(1) delay that restarts
  // immediately (its START is the same as the previous END... simplest:
  // drive arrivals by a dedicated clock process).
  Program clock;
  clock.define("Sys", {},
               par(call("Arrivals"), {"ARRIVE"}, call("Server")));
  clock.define("Arrivals", {},
               prefix("A_START", prefix("A_END", prefix("ARRIVE",
                                                        call("Arrivals")))));
  clock.define("Server", {},
               prefix("ARRIVE", prefix("S_START",
                                       prefix("S_END", call("Server")))));
  const lts::Lts l = generate(clock, "Sys");
  const std::vector<core::DelaySpec> delays{
      {"A_START", "A_END", phase::PhaseType::exponential(1.0)},
      {"S_START", "S_END", phase::PhaseType::exponential(2.0)},
  };
  const imc::Imc m = core::insert_delays(l, delays);
  const auto closed = core::close_model(m);
  // The arrival timer runs concurrently with service, so the lumped chain
  // has 3 states: (delaying, serving), (waiting, serving), (delaying, idle).
  // Balance gives pi = (2/7, 1/7, 4/7) and both long-run completion rates
  // equal 6/7 (one arrival per service).
  const auto pi = markov::steady_state(closed.ctmc);
  ASSERT_EQ(pi.size(), 3u);
  const double thr_arrivals = markov::throughput(closed.ctmc, pi, "A_END");
  const double thr_services = markov::throughput(closed.ctmc, pi, "S_END");
  EXPECT_NEAR(thr_arrivals, thr_services, 1e-9);
  EXPECT_NEAR(thr_services, 6.0 / 7.0, 1e-9);
}

TEST(Flow, CloseModelLumpsCycles) {
  Program p;
  p.define("Cycle", {},
           prefix("D1_START", prefix("D1_END",
                  prefix("D2_START", prefix("D2_END", call("Cycle"))))));
  const lts::Lts l = generate(p, "Cycle");
  // Distinct stage rates: the two phases stay distinguishable.
  const auto distinct = core::close_model(core::insert_delays(
      l, {{"D1_START", "D1_END", phase::PhaseType::exponential(3.0)},
          {"D2_START", "D2_END", phase::PhaseType::exponential(5.0)}}));
  EXPECT_EQ(distinct.ctmc.num_states(), 2u);
  const auto pi = markov::steady_state(distinct.ctmc);
  EXPECT_NEAR(*std::max_element(pi.begin(), pi.end()), 5.0 / 8.0, 1e-9);
  // Equal rates: rate-wise the cycle is lumpable, but the two delays carry
  // distinct measurement labels (D1_END / D2_END), which lumping preserves
  // by design — the stages stay distinguishable.
  const auto equal = core::close_model(core::insert_delays(
      l, {{"D1_START", "D1_END", phase::PhaseType::exponential(3.0)},
          {"D2_START", "D2_END", phase::PhaseType::exponential(3.0)}}));
  EXPECT_EQ(equal.ctmc.num_states(), 2u);
  EXPECT_LE(equal.stats.lumped_states, equal.stats.imc_states);
  // Without labels the same cycle collapses to one state.
  imc::Imc plain;
  plain.add_states(2);
  plain.add_markovian(0, 3.0, 1);
  plain.add_markovian(1, 3.0, 0);
  EXPECT_EQ(imc::minimize_imc(plain).quotient.num_states(), 1u);
}

TEST(Flow, ErlangDelayLatency) {
  // One-shot: START then Erlang-4(rate 8) delay then END then stop;
  // expected absorption time = 0.5.
  Program p;
  p.define("Once", {}, prefix("D_START", prefix("D_END", stop())));
  const std::vector<core::DelaySpec> delays{
      {"D_START", "D_END", phase::PhaseType::erlang(4, 8.0)},
  };
  const auto closed =
      core::close_model(core::insert_delays(generate(p, "Once"), delays));
  EXPECT_NEAR(markov::expected_absorption_time_from_initial(closed.ctmc), 0.5,
              1e-9);
}

TEST(Flow, DecorateWithPhaseTypeErlangMean) {
  // A one-shot HOP transition with an Erlang-4 delay of mean 0.5.
  lts::Lts l;
  l.add_states(2);
  l.add_transition(0, "HOP", 1);
  const imc::Imc m = core::decorate_with_phase_type(
      l, {{"HOP", phase::PhaseType::erlang(4, 8.0)}});
  EXPECT_EQ(m.num_states(), 2u + 3u);  // 3 intermediate stages
  const auto closed = core::close_model(m);
  EXPECT_NEAR(markov::expected_absorption_time_from_initial(closed.ctmc),
              0.5, 1e-9);
}

TEST(Flow, DecorateWithPhaseTypeKeepsLabels) {
  lts::Lts l;
  l.add_states(2);
  l.add_transition(0, "HOP", 1);
  l.add_transition(1, "HOP", 0);
  const imc::Imc m = core::decorate_with_phase_type(
      l, {{"HOP", phase::PhaseType::erlang(2, 4.0)}});
  const auto closed = core::close_model(m);
  const auto pi = markov::steady_state(closed.ctmc);
  // One HOP completes every 0.5 time units on average.
  EXPECT_NEAR(markov::throughput(closed.ctmc, pi, "HOP"), 2.0, 1e-9);
}

TEST(Flow, DecorateWithPhaseTypeAgreesWithExponentialRates) {
  lts::Lts l;
  l.add_states(2);
  l.add_transition(0, "A", 1);
  l.add_transition(1, "B", 0);
  const auto via_pt = core::close_model(core::decorate_with_phase_type(
      l, {{"A", phase::PhaseType::exponential(2.0)},
          {"B", phase::PhaseType::exponential(3.0)}}));
  const auto via_rates = core::close_model(core::decorate_with_rates(
      l, {{"A", 2.0}, {"B", 3.0}}));
  const auto pi_pt = markov::steady_state(via_pt.ctmc);
  const auto pi_r = markov::steady_state(via_rates.ctmc);
  EXPECT_NEAR(markov::throughput(via_pt.ctmc, pi_pt, "A"),
              markov::throughput(via_rates.ctmc, pi_r, "A"), 1e-9);
}

TEST(Flow, DecorateWithPhaseTypeRejectsHyperexponential) {
  lts::Lts l;
  l.add_states(1);
  EXPECT_THROW(
      (void)core::decorate_with_phase_type(
          l, {{"A", phase::PhaseType::hyperexponential({0.5, 0.5},
                                                       {1.0, 2.0})}}),
      std::invalid_argument);
}

TEST(Flow, NondeterminismSurfacesInClose) {
  // Two competing hidden actions from the initial state -> rejected.
  lts::Lts l;
  l.add_states(3);
  l.add_transition(0, "A", 1);
  l.add_transition(0, "B", 2);
  l.add_transition(1, "LOOPA", 1);
  l.add_transition(2, "LOOPB", 2);
  const imc::Imc m = core::decorate_with_rates(l, {{"LOOPA", 1.0},
                                                   {"LOOPB", 2.0}});
  EXPECT_THROW((void)core::close_model(m), imc::NondeterminismError);
  const auto closed = core::close_model(m, imc::NondetPolicy::kUniform);
  EXPECT_EQ(closed.ctmc.num_states(), 2u);
}

}  // namespace
