// Tests for the generate–minimise–compose pipeline (compose/plan and its
// reductions explore::tau_compress and bisim::canonical_form): planner
// determinism and fallback provenance, byte-identity of the planned and
// flat strategies and across worker counts, the peak-intermediate bound on
// the 3-node MESI case study (the F8 compositional exhibit, gated here in
// CI), golden flat outputs of the case-study generators, the bounded
// minimisation cache with its plan-keyed subtree tier, and the algebraic
// property that minimising components before composing is
// branching-equivalent to composing first.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bisim/equivalence.hpp"
#include "bisim/reduction.hpp"
#include "compose/pipeline.hpp"
#include "compose/plan.hpp"
#include "core/flow.hpp"
#include "explore/engine.hpp"
#include "explore/lts_stream.hpp"
#include "explore/oracle.hpp"
#include "fame/coherence_n.hpp"
#include "fame/mpi.hpp"
#include "fame/topology.hpp"
#include "imc/scheduler.hpp"
#include "lts/lts.hpp"
#include "lts/lts_io.hpp"
#include "noc/mesh.hpp"
#include "noc/perf.hpp"
#include "proc/parser.hpp"
#include "proc/process.hpp"
#include "xstream/queue_model.hpp"

namespace {

using namespace multival;

std::string serialized(const lts::Lts& l) {
  std::ostringstream os;
  explore::write_lts_stream(os, l);
  return std::move(os).str();
}

std::shared_ptr<const proc::Program> parse_shared(const std::string& text) {
  return std::make_shared<const proc::Program>(proc::parse_program(text));
}

// ------------------------------------------------------------- the planner --

TEST(Planner, DeterministicOverReruns) {
  const auto p = std::make_shared<const proc::Program>(
      fame::coherence_system_n_program(fame::Protocol::kMesi, 3));
  const compose::Plan a = compose::plan_program(p, "SystemN");
  const compose::Plan b = compose::plan_program(p, "SystemN");
  EXPECT_TRUE(a.planned);
  EXPECT_EQ(a.grammar, b.grammar);
  EXPECT_EQ(a.components, b.components);
  EXPECT_GE(a.components.size(), 4u);  // 3 caches + directory + observer
}

TEST(Planner, SequentialTermFallsBackWithReason) {
  const auto p = parse_shared("process P := A ; B ; stop endproc");
  const compose::Plan plan = compose::plan_program(p, "P");
  EXPECT_FALSE(plan.planned);
  EXPECT_FALSE(plan.fallback_reason.empty());
  ASSERT_NE(plan.root, nullptr);
  // The fallback still evaluates, through the same normal form as flat.
  const compose::PlanResult r = compose::evaluate_plan(plan);
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("P", {}));
  EXPECT_EQ(serialized(r.lts), serialized(flat.lts));
}

TEST(Planner, FreeInterleavingOfSharedGateFallsBack) {
  // G is in both alphabets but not synchronised: reassociation with
  // alphabetised sync sets cannot express the free interleaving.
  const auto p = parse_shared(R"(
    process A := G ; S ; A endproc
    process B := G ; S ; B endproc
    process Sys := A |[S]| B endproc
  )");
  const compose::Plan plan = compose::plan_program(p, "Sys");
  EXPECT_FALSE(plan.planned);
  EXPECT_NE(plan.fallback_reason.find("interleaves freely"),
            std::string::npos);
  const compose::PlanResult r = compose::evaluate_plan(plan);
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("Sys", {}));
  EXPECT_EQ(serialized(r.lts), serialized(flat.lts));
}

TEST(Planner, DuplicateHideFallsBack) {
  const auto p = parse_shared(R"(
    process A := G ; A endproc
    process B := G ; B endproc
    process Sys := hide G in ((hide G in A) |[S]| B) endproc
  )");
  const compose::Plan plan = compose::plan_program(p, "Sys");
  EXPECT_FALSE(plan.planned);
  EXPECT_NE(plan.fallback_reason.find("hidden more than once"),
            std::string::npos);
}

// --------------------------------------------- planned == flat, peak bound --

TEST(Planner, Mesi3NodePlannedMatchesFlatWithBoundedPeak) {
  const auto p = std::make_shared<const proc::Program>(
      fame::coherence_system_n_program(fame::Protocol::kMesi, 3));
  const compose::Plan plan = compose::plan_program(p, "SystemN");
  ASSERT_TRUE(plan.planned) << plan.fallback_reason;
  const compose::PlanResult planned = compose::evaluate_plan(plan);
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("SystemN", {}));

  // The acceptance gate of the compositional pipeline: byte-identical
  // results, peak intermediate within 4x of the final minimal LTS.
  EXPECT_EQ(serialized(planned.lts), serialized(flat.lts));
  EXPECT_GT(planned.lts.num_states(), 0u);
  EXPECT_LE(planned.stats.peak_states, 4 * planned.lts.num_states());
  // And the planned peak must actually improve on the monolithic peak.
  EXPECT_LT(planned.stats.peak_states, flat.stats.peak_states);
}

TEST(Planner, Mesi3NodeIsIdenticalAcrossWorkerCounts) {
  const auto p = std::make_shared<const proc::Program>(
      fame::coherence_system_n_program(fame::Protocol::kMesi, 3));
  const compose::Plan plan = compose::plan_program(p, "SystemN");
  ASSERT_TRUE(plan.planned) << plan.fallback_reason;
  const compose::PlanResult one = compose::evaluate_plan(plan, {1});
  for (const unsigned workers : {2u, 4u}) {
    const compose::PlanResult many = compose::evaluate_plan(plan, {workers});
    EXPECT_EQ(serialized(many.lts), serialized(one.lts)) << workers;
    EXPECT_EQ(many.stats.peak_states, one.stats.peak_states) << workers;
  }
}

TEST(Planner, Mesh3x3PlannedMatchesFlat) {
  const auto p = std::make_shared<const proc::Program>(
      noc::single_packet_program(0, 8, /*hide_links=*/true,
                                 noc::MeshDims{3, 3}));
  const compose::Plan plan = compose::plan_program(p, "Scenario");
  const compose::PlanResult planned = compose::evaluate_plan(plan);
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("Scenario", {}));
  EXPECT_EQ(serialized(planned.lts), serialized(flat.lts));
  EXPECT_LE(planned.stats.peak_states, 4 * planned.lts.num_states());
}

// ---------------------------------------------------- static bound routing --

TEST(Planner, XstreamDrainIsStaticallySkipped) {
  // The drain scenario's pop side owes credits without a local ceiling, so
  // generating it standalone can only grind to kMaxComponentStates and
  // then take the runtime monolithic fallback.  The static bound analysis
  // proves this before any state exists: the plan must arrive as a
  // monolithic fallback with "static skip (MV042)" provenance, and the
  // evaluation must never record the runtime fallback step.
  xstream::QueueConfig cfg;
  cfg.capacity = 2;
  cfg.max_value = 0;
  const auto p = std::make_shared<const proc::Program>(
      xstream::drain_scenario_program(cfg, 3));
  const compose::Plan plan = compose::plan_program(p, "DrainScenario");
  EXPECT_FALSE(plan.planned);
  ASSERT_FALSE(plan.static_skips.empty());
  EXPECT_NE(plan.static_skips[0].find("static skip (MV042)"),
            std::string::npos);
  EXPECT_NE(plan.static_skips[0].find("PopSide"), std::string::npos);
  EXPECT_NE(plan.fallback_reason.find("MV042"), std::string::npos);

  const compose::PlanResult planned = compose::evaluate_plan(plan);
  bool saw_static_skip = false;
  for (const compose::StepStat& s : planned.stats.steps) {
    if (s.description.find("static skip (MV042)") != std::string::npos) {
      saw_static_skip = true;
    }
    EXPECT_EQ(s.description.find("monolithic fallback"), std::string::npos)
        << "runtime fallback fired despite the static route-around: "
        << s.description;
  }
  EXPECT_TRUE(saw_static_skip);

  // The static detour preserves the byte-identity contract.
  const compose::PlanResult flat =
      compose::flat_reference(p, proc::call("DrainScenario", {}));
  EXPECT_EQ(serialized(planned.lts), serialized(flat.lts));
}

TEST(Planner, ComponentBoundsAreRecorded) {
  const auto p = std::make_shared<const proc::Program>(
      fame::coherence_system_n_program(fame::Protocol::kMesi, 3));
  const compose::Plan plan = compose::plan_program(p, "SystemN");
  ASSERT_TRUE(plan.planned) << plan.fallback_reason;
  ASSERT_EQ(plan.component_bounds.size(), plan.components.size());
  for (const std::uint64_t b : plan.component_bounds) {
    EXPECT_GT(b, 0u);
    EXPECT_LT(b, compose::kMaxComponentStates);
  }
}

// ------------------------------------------------------ reduction entries --

/// The inert-tau contraction every intermediate product goes through.
lts::Lts tau_compressed(const lts::Lts& l) {
  return explore::explore(*explore::tau_compress(explore::lts_oracle(l))).lts;
}

TEST(Reduction, TauCompressContractsInertChains) {
  lts::Lts l;
  l.add_states(5);
  l.add_transition(0, "a", 1);
  l.add_transition(1, "i", 2);
  l.add_transition(2, "i", 3);
  l.add_transition(3, "b", 4);
  const lts::Lts c = tau_compressed(l);
  EXPECT_EQ(c.num_states(), 3u);  // 0, {1,2,3}, 4
  EXPECT_TRUE(bisim::equivalent(l, c,
                                bisim::Equivalence::kDivergenceBranching));
}

TEST(Reduction, TauCompressKeepsDivergence) {
  lts::Lts l;
  l.add_states(3);
  l.add_transition(0, "a", 1);
  l.add_transition(1, "i", 2);
  l.add_transition(2, "i", 1);  // inert tau cycle: a livelock
  const lts::Lts c = tau_compressed(l);
  EXPECT_LT(c.num_states(), l.num_states());
  bool has_tau_self_loop = false;
  for (const lts::Transition& t : c.all_transitions()) {
    has_tau_self_loop =
        has_tau_self_loop || (t.action == 0 && t.dst == t.src);
  }
  EXPECT_TRUE(has_tau_self_loop);
  EXPECT_TRUE(bisim::equivalent(l, c,
                                bisim::Equivalence::kDivergenceBranching));
}

TEST(Reduction, CanonicalFormIsIsomorphismInvariant) {
  // The same behaviour built with two different state numberings and label
  // interning orders must canonicalise to identical bytes.
  lts::Lts a;
  a.add_states(3);
  a.add_transition(0, "x", 1);
  a.add_transition(0, "y", 2);
  a.add_transition(1, "x", 0);
  a.add_transition(2, "y", 0);

  lts::Lts b;  // states renamed 0->0, 1<->2; labels interned y first
  b.add_states(3);
  b.add_transition(0, "y", 1);
  b.add_transition(1, "y", 0);
  b.add_transition(0, "x", 2);
  b.add_transition(2, "x", 0);

  EXPECT_EQ(serialized(bisim::canonical_form(a)),
            serialized(bisim::canonical_form(b)));
}

TEST(Reduction, OracleTauCompressShrinksHiddenWalk) {
  const auto program = parse_shared(R"(
    process Walk := STEP ; STEP ; STEP ; DONE ; Walk endproc
    process P := hide STEP in Walk endproc
  )");
  const explore::ExploreResult plain =
      explore::explore(*explore::proc_oracle(program, "P"));
  const explore::ExploreResult compressed = explore::explore(
      *explore::tau_compress(explore::proc_oracle(program, "P")));
  EXPECT_LT(compressed.lts.num_states(), plain.lts.num_states());
  EXPECT_TRUE(bisim::equivalent(
      plain.lts, compressed.lts,
      bisim::Equivalence::kDivergenceBranching));
}

// ------------------------------------------------- golden flat outputs --
//
// The kFlat output of every case-study generator is plain monolithic
// generation, chosen in compose::pipeline_lts alone.  These pins fix its
// exact .aut bytes on the T1 instances.

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void expect_golden(const lts::Lts& l, std::size_t states,
                   std::size_t transitions, std::uint64_t aut_hash) {
  EXPECT_EQ(l.num_states(), states);
  EXPECT_EQ(l.num_transitions(), transitions);
  EXPECT_EQ(fnv1a64(lts::to_aut(l)), aut_hash);
}

TEST(PlanGolden, FlatNocSinglePacket) {
  expect_golden(noc::single_packet_lts(0, 3, /*hide_links=*/true, {},
                                       compose::Strategy::kFlat),
                8, 7, 0xafe9451aa7a3a5b3ull);
}

TEST(PlanGolden, FlatNocStream) {
  expect_golden(noc::stream_lts({{0, 3}, {1, 3}}, /*hide_links=*/true, {},
                                compose::Strategy::kFlat),
                36, 70, 0x046199d6c6842a7dull);
}

TEST(PlanGolden, FlatFameMesi3Node) {
  expect_golden(fame::coherence_system_n_lts(fame::Protocol::kMesi, 3,
                                             compose::Strategy::kFlat),
                5402, 21750, 0xb8d8658fec084179ull);
}

TEST(PlanGolden, FlatFamePingPong) {
  fame::PingPongConfig config;
  config.rounds = 2;
  expect_golden(fame::pingpong_lts(config, compose::Strategy::kFlat), 86, 85,
                0x501e0f01ce57e78bull);
}

TEST(PlanGolden, FlatXstreamDrain) {
  xstream::QueueConfig cfg;
  cfg.capacity = 2;
  cfg.max_value = 0;
  expect_golden(xstream::drain_scenario_lts(cfg, 3, compose::Strategy::kFlat),
                26, 39, 0x4217d4ccdac7c9e7ull);
}

// ------------------------------------------------------------- the caches --

TEST(MinimizeCache, LruEvictsUnderByteBudget) {
  compose::LruMinimizeCache cache(/*capacity_bytes=*/4096);
  std::vector<lts::Lts> inputs;
  for (int k = 0; k < 6; ++k) {
    lts::Lts l;
    l.add_states(64);
    for (lts::StateId s = 0; s + 1 < 64; ++s) {
      l.add_transition(s, "g" + std::to_string(k), s + 1);
    }
    inputs.push_back(std::move(l));
  }
  const auto e = bisim::Equivalence::kDivergenceBranching;
  for (const lts::Lts& l : inputs) {
    EXPECT_FALSE(cache.lookup(l, e).has_value());
    cache.store(l, e, bisim::canonical_minimized(l, e));
  }
  const compose::LruMinimizeCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.insertions, 6u);
  EXPECT_GT(s.evictions, 0u);           // the budget cannot hold all six
  EXPECT_LT(cache.entries(), 6u);
  EXPECT_LE(cache.bytes(), 4096u);
  // The most recent entry survives; the oldest was evicted.
  EXPECT_TRUE(cache.lookup(inputs.back(), e).has_value());
  EXPECT_FALSE(cache.lookup(inputs.front(), e).has_value());
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(MinimizeCache, PlanSubtreeKeysSkipRegeneration) {
  const auto p = std::make_shared<const proc::Program>(
      fame::coherence_system_n_program(fame::Protocol::kMsi, 3));
  const compose::Plan plan = compose::plan_program(p, "SystemN");
  ASSERT_TRUE(plan.planned);

  compose::LruMinimizeCache cache;
  const compose::PlanResult first = compose::evaluate_plan(plan, {}, &cache);
  const compose::Plan replan = compose::plan_program(p, "SystemN");
  const compose::PlanResult second =
      compose::evaluate_plan(replan, {}, &cache);

  EXPECT_EQ(serialized(first.lts), serialized(second.lts));
  // The re-plan resolves its root from the subtree tier: no generation, a
  // single cached step, and the cache reports the hit.
  ASSERT_FALSE(second.stats.steps.empty());
  bool subtree_hit = false;
  for (const auto& step : second.stats.steps) {
    subtree_hit = subtree_hit || step.description.find("subtree cached") !=
                                     std::string::npos;
  }
  EXPECT_TRUE(subtree_hit);
  EXPECT_LT(second.stats.steps.size(), first.stats.steps.size());
  EXPECT_GT(cache.stats().hits, 0u);
}

// ------------------------------------------- the congruence property test --

lts::Lts random_component(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<lts::StateId> state(0, 7);
  std::uniform_int_distribution<int> label(0, 3);
  lts::Lts l;
  l.add_states(8);
  // A spine keeps every state reachable; random chords add branching,
  // nondeterminism and tau transitions ("i" when label(rng) == 3).
  const char* names[] = {"G0", "G1", "G2", "i"};
  for (lts::StateId s = 0; s + 1 < 8; ++s) {
    l.add_transition(s, names[label(rng)], s + 1);
  }
  for (int k = 0; k < 12; ++k) {
    l.add_transition(state(rng), names[label(rng)], state(rng));
  }
  return l;
}

TEST(PlanProperty, MinimizeThenComposeMatchesComposeThenMinimize) {
  const auto e = bisim::Equivalence::kDivergenceBranching;
  for (std::uint32_t seed = 0; seed < 24; ++seed) {
    const lts::Lts a = random_component(seed * 2 + 1);
    const lts::Lts b = random_component(seed * 2 + 2);
    const std::vector<std::string> sync = {"G0", "G1", "G2"};

    // Compositional: minimise each component, compose, minimise again.
    const compose::NodePtr early = compose::minimize_here(
        compose::compose2(
            compose::minimize_here(compose::leaf(a, "a"), e), sync,
            compose::minimize_here(compose::leaf(b, "b"), e)),
        e);
    // Monolithic: compose raw, minimise once at the end.
    const compose::NodePtr late = compose::minimize_here(
        compose::compose2(compose::leaf(a, "a"), sync,
                          compose::leaf(b, "b")),
        e);

    const lts::Lts r_early =
        compose::evaluate(early, /*with_minimization=*/true);
    const lts::Lts r_late =
        compose::evaluate(late, /*with_minimization=*/true);
    EXPECT_TRUE(bisim::equivalent(r_early, r_late, e))
        << "seed " << seed << ": minimise-then-compose diverged from "
        << "compose-then-minimise";
    // And both canonicalise to the same bytes (the pipeline's invariant).
    EXPECT_EQ(serialized(bisim::canonical_minimized(r_early, e)),
              serialized(bisim::canonical_minimized(r_late, e)));
  }
}

// --------------------------------------------------- golden solver values --

TEST(PlanGolden, FamePingPongBoundsSurviveTheReduction) {
  fame::PingPongConfig config;
  config.rounds = 2;
  const auto rates = fame::topology_rates(fame::Topology::kBus,
                                          {"M", "S0", "S1"}, 1.0);
  const imc::Bounds flat = imc::absorption_time_bounds(
      core::decorate_with_rates(
          fame::pingpong_lts(config, compose::Strategy::kFlat), rates));
  const imc::Bounds planned = imc::absorption_time_bounds(
      core::decorate_with_rates(
          fame::pingpong_lts(config, compose::Strategy::kPlanned), rates));
  EXPECT_GT(flat.max, 0.0);
  EXPECT_NEAR(planned.min, flat.min, 1e-9 * (1.0 + std::abs(flat.min)));
  EXPECT_NEAR(planned.max, flat.max, 1e-9 * (1.0 + std::abs(flat.max)));
}

TEST(PlanGolden, XstreamDrainBoundsSurviveTheReduction) {
  xstream::QueueConfig cfg;
  cfg.capacity = 2;
  cfg.max_value = 0;
  const std::map<std::string, double> rates = {
      {"PUSH", 1.0}, {"NET", 10.0}, {"CREDIT", 10.0}, {"POP", 2.0}};
  const imc::Bounds flat = imc::absorption_time_bounds(
      core::decorate_with_rates(
          xstream::drain_scenario_lts(cfg, 3, compose::Strategy::kFlat),
          rates));
  const imc::Bounds planned = imc::absorption_time_bounds(
      core::decorate_with_rates(
          xstream::drain_scenario_lts(cfg, 3, compose::Strategy::kPlanned),
          rates));
  EXPECT_GT(flat.max, 0.0);
  EXPECT_NEAR(planned.min, flat.min, 1e-9 * (1.0 + std::abs(flat.min)));
  EXPECT_NEAR(planned.max, flat.max, 1e-9 * (1.0 + std::abs(flat.max)));
}

TEST(PlanGolden, NocSinglePacketBoundsSurviveTheReduction) {
  const noc::MeshDims dims{2, 2};
  const auto table = noc::rate_table(noc::NocRates{}, dims);
  const imc::Bounds flat = imc::absorption_time_bounds(
      core::decorate_with_rates(
          noc::single_packet_lts(0, 3, /*hide_links=*/false, dims,
                                 compose::Strategy::kFlat),
          table));
  const imc::Bounds planned = imc::absorption_time_bounds(
      core::decorate_with_rates(
          noc::single_packet_lts(0, 3, /*hide_links=*/false, dims,
                                 compose::Strategy::kPlanned),
          table));
  EXPECT_GT(flat.max, 0.0);
  EXPECT_NEAR(planned.min, flat.min, 1e-9 * (1.0 + std::abs(flat.min)));
  EXPECT_NEAR(planned.max, flat.max, 1e-9 * (1.0 + std::abs(flat.max)));
}

}  // namespace
