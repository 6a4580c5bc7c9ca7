// Unit tests for the proc/ module: expressions, terms, and LTS generation
// from LOTOS-like process definitions.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bisim/equivalence.hpp"
#include "lts/analysis.hpp"
#include "lts/lts_io.hpp"
#include "mc/evaluator.hpp"
#include "mc/properties.hpp"
#include "proc/expr.hpp"
#include "noc/router.hpp"
#include "proc/generator.hpp"
#include "proc/parser.hpp"
#include "proc/process.hpp"

namespace {

using namespace multival;
using namespace multival::proc;
using lts::Lts;

// --- expressions -----------------------------------------------------------

TEST(Expr, ConstAndVar) {
  Env env;
  env.bind("x", 5);
  EXPECT_EQ(lit(3)->eval(env), 3);
  EXPECT_EQ(evar("x")->eval(env), 5);
  EXPECT_THROW((void)evar("y")->eval(env), std::out_of_range);
}

TEST(Expr, Arithmetic) {
  Env env;
  env.bind("x", 7);
  EXPECT_EQ((evar("x") + lit(3))->eval(env), 10);
  EXPECT_EQ((evar("x") - lit(3))->eval(env), 4);
  EXPECT_EQ((evar("x") * lit(2))->eval(env), 14);
  EXPECT_EQ((evar("x") / lit(2))->eval(env), 3);
  EXPECT_EQ((evar("x") % lit(4))->eval(env), 3);
  EXPECT_EQ((-evar("x"))->eval(env), -7);
  EXPECT_EQ(emin(evar("x"), lit(3))->eval(env), 3);
  EXPECT_EQ(emax(evar("x"), lit(3))->eval(env), 7);
}

TEST(Expr, DivisionByZeroThrows) {
  Env env;
  EXPECT_THROW((void)(lit(1) / lit(0))->eval(env), std::domain_error);
  EXPECT_THROW((void)(lit(1) % lit(0))->eval(env), std::domain_error);
}

TEST(Expr, Comparisons) {
  Env env;
  EXPECT_EQ((lit(2) == lit(2))->eval(env), 1);
  EXPECT_EQ((lit(2) != lit(2))->eval(env), 0);
  EXPECT_EQ((lit(1) < lit(2))->eval(env), 1);
  EXPECT_EQ((lit(2) <= lit(2))->eval(env), 1);
  EXPECT_EQ((lit(3) > lit(2))->eval(env), 1);
  EXPECT_EQ((lit(1) >= lit(2))->eval(env), 0);
}

TEST(Expr, BooleansShortCircuit) {
  Env env;
  // (0 && (1/0)) must not evaluate the division.
  EXPECT_EQ((lit(0) && (lit(1) / lit(0)))->eval(env), 0);
  EXPECT_EQ((lit(1) || (lit(1) / lit(0)))->eval(env), 1);
  EXPECT_EQ((!lit(0))->eval(env), 1);
  EXPECT_EQ((!lit(5))->eval(env), 0);
}

TEST(Expr, FreeVarsAreSortedDeduped) {
  const auto e = (evar("b") + evar("a")) * evar("b");
  const auto& fv = e->free_vars();
  ASSERT_EQ(fv.size(), 2u);
  EXPECT_EQ(fv[0], "a");
  EXPECT_EQ(fv[1], "b");
}

TEST(Expr, ToString) {
  EXPECT_EQ((evar("x") + lit(1))->to_string(), "(x + 1)");
}

// --- Env ----------------------------------------------------------------------

TEST(EnvTest, BindAndLookup) {
  Env env;
  env.bind("b", 2);
  env.bind("a", 1);
  env.bind("b", 3);  // rebind
  EXPECT_EQ(env.size(), 2u);
  EXPECT_EQ(*env.lookup("a"), 1);
  EXPECT_EQ(*env.lookup("b"), 3);
  EXPECT_FALSE(env.lookup("c").has_value());
}

TEST(EnvTest, EntriesSortedByName) {
  Env env;
  env.bind("z", 1);
  env.bind("a", 2);
  ASSERT_EQ(env.entries().size(), 2u);
  EXPECT_EQ(env.entries()[0].first, "a");
}

TEST(EnvTest, RestrictedTo) {
  Env env;
  env.bind("a", 1);
  env.bind("b", 2);
  env.bind("c", 3);
  const std::vector<std::string> keep{"a", "c", "zz"};
  const Env r = env.restricted_to(keep);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.lookup("a").has_value());
  EXPECT_FALSE(r.lookup("b").has_value());
}

TEST(EnvTest, EqualityAndHash) {
  Env a;
  a.bind("x", 1);
  Env b;
  b.bind("x", 1);
  Env c;
  c.bind("x", 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, c);
}

// --- term construction ----------------------------------------------------------

TEST(Terms, ReservedGatesRejected) {
  EXPECT_THROW((void)prefix("i", stop()), std::invalid_argument);
  EXPECT_THROW((void)prefix("exit", stop()), std::invalid_argument);
  EXPECT_THROW((void)prefix("", stop()), std::invalid_argument);
}

TEST(Terms, EmptyAcceptRangeRejected) {
  EXPECT_THROW((void)accept("x", 3, 1), std::invalid_argument);
}

TEST(Terms, ChoiceSimplifications) {
  EXPECT_EQ(choice({})->kind(), Term::Kind::kStop);
  const TermPtr p = prefix("A", stop());
  EXPECT_EQ(choice({p}), p);
}

TEST(Terms, PrefixFreeVarsAccountForBinding) {
  // A !x ?y:0..1 !y ; B !z — free: x, z (y is bound by the accept).
  const TermPtr t =
      prefix("A", {emit(evar("x")), accept("y", 0, 1), emit(evar("y"))},
             prefix("B", {emit(evar("z"))}, stop()));
  const auto& fv = t->free_vars();
  ASSERT_EQ(fv.size(), 2u);
  EXPECT_EQ(fv[0], "x");
  EXPECT_EQ(fv[1], "z");
}

TEST(Terms, ProgramRejectsRedefinition) {
  Program p;
  p.define("P", {}, stop());
  EXPECT_THROW(p.define("P", {}, stop()), std::invalid_argument);
  EXPECT_TRUE(p.has_definition("P"));
  EXPECT_FALSE(p.has_definition("Q"));
  EXPECT_THROW((void)p.definition("Q"), std::out_of_range);
}

// --- generation: sequential ------------------------------------------------------

TEST(Generate, StopIsSingleDeadlockState) {
  Program p;
  const Lts l = generate_term(p, stop());
  EXPECT_EQ(l.num_states(), 1u);
  EXPECT_EQ(l.num_transitions(), 0u);
}

TEST(Generate, ExitEmitsExitAction) {
  Program p;
  const Lts l = generate_term(p, exit_());
  EXPECT_EQ(l.num_states(), 2u);
  ASSERT_EQ(l.out(l.initial_state()).size(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "exit");
}

TEST(Generate, PrefixSequence) {
  Program p;
  const Lts l = generate_term(p, prefix("A", prefix("B", stop())));
  EXPECT_EQ(l.num_states(), 3u);
  EXPECT_EQ(l.num_transitions(), 2u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "A");
}

TEST(Generate, EmitRendersValues) {
  Program p;
  const Lts l =
      generate_term(p, prefix("CH", {emit(lit(2) + lit(3))}, stop()));
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "CH !5");
}

TEST(Generate, AcceptEnumeratesRange) {
  Program p;
  const Lts l = generate_term(p, prefix("CH", {accept("x", 0, 2)}, stop()));
  EXPECT_EQ(l.out(l.initial_state()).size(), 3u);
}

TEST(Generate, AcceptBindsContinuation) {
  Program p;
  const Lts l = generate_term(
      p, prefix("IN", {accept("x", 1, 2)},
                prefix("OUT", {emit(evar("x") * lit(10))}, stop())));
  // IN !1 -> OUT !10, IN !2 -> OUT !20.
  bool saw10 = false;
  bool saw20 = false;
  for (const auto& t : l.all_transitions()) {
    const auto name = l.actions().name(t.action);
    saw10 = saw10 || name == "OUT !10";
    saw20 = saw20 || name == "OUT !20";
  }
  EXPECT_TRUE(saw10);
  EXPECT_TRUE(saw20);
}

TEST(Generate, AcceptVisibleToLaterOffersOfSameAction) {
  Program p;
  const Lts l = generate_term(
      p, prefix("CH", {accept("x", 1, 2), emit(evar("x") + lit(1))}, stop()));
  std::vector<std::string> labels;
  for (const auto& e : l.out(l.initial_state())) {
    labels.emplace_back(l.actions().name(e.action));
  }
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_NE(std::find(labels.begin(), labels.end(), "CH !1 !2"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "CH !2 !3"), labels.end());
}

TEST(Generate, GuardPrunesBranches) {
  Program p;
  const TermPtr t = choice({guard(lit(1), prefix("YES", stop())),
                            guard(lit(0), prefix("NO", stop()))});
  const Lts l = generate_term(p, t);
  ASSERT_EQ(l.out(l.initial_state()).size(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "YES");
}

TEST(Generate, RecursionClosesCycle) {
  Program p;
  p.define("Clock", {}, prefix("TICK", call("Clock")));
  const Lts l = generate(p, "Clock");
  EXPECT_EQ(l.num_states(), 1u);
  EXPECT_EQ(l.num_transitions(), 1u);
}

TEST(Generate, ParameterisedCounter) {
  Program p;
  p.define("Count", {"n"},
           choice({guard(evar("n") < lit(3),
                         prefix("UP", call("Count", {evar("n") + lit(1)}))),
                   guard(evar("n") > lit(0),
                         prefix("DOWN", call("Count", {evar("n") - lit(1)})))}));
  const Lts l = generate(p, "Count", {0});
  EXPECT_EQ(l.num_states(), 4u);  // n = 0..3
  EXPECT_EQ(l.num_transitions(), 6u);
}

TEST(Generate, CallArityChecked) {
  Program p;
  p.define("P", {"a", "b"}, stop());
  EXPECT_THROW((void)generate(p, "P", {1}), std::invalid_argument);
}

TEST(Generate, UndefinedProcessThrows) {
  Program p;
  EXPECT_THROW((void)generate(p, "Nope"), std::out_of_range);
}

TEST(Generate, UnguardedRecursionDetected) {
  Program p;
  p.define("Bad", {}, call("Bad"));
  EXPECT_THROW((void)generate(p, "Bad"), UnguardedRecursion);
}

TEST(Generate, AcceptRangeEndingAtInt32Max) {
  const Program p =
      parse_program("process P := G ?x:2147483646..2147483647 ; stop endproc");
  GenerateOptions opts;
  opts.max_states = 1000;
  const Lts l = generate(p, "P", {}, opts);
  EXPECT_EQ(l.num_transitions(), 2u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[1].action),
            "G !2147483647");
}

TEST(Generate, StateLimitEnforced) {
  Program p;
  p.define("Grow", {"n"}, prefix("A", call("Grow", {evar("n") + lit(1)})));
  GenerateOptions opts;
  opts.max_states = 100;
  EXPECT_THROW((void)generate(p, "Grow", {0}, opts), StateSpaceLimit);
}

// --- on-the-fly deadlock search ----------------------------------------------------

TEST(FindDeadlock, FindsShortestTrace) {
  Program p;
  p.define("P", {},
           choice({prefix("LOOP", call("P")),
                   prefix("A", prefix("B", stop()))}));
  const DeadlockSearchResult r = find_deadlock(p, "P");
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[0], "A");
  EXPECT_EQ(r.trace[1], "B");
}

TEST(FindDeadlock, ReportsAbsenceOnLiveSystem) {
  Program p;
  p.define("Clock", {}, prefix("TICK", call("Clock")));
  const DeadlockSearchResult r = find_deadlock(p, "Clock");
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.trace.empty());
}

TEST(FindDeadlock, StopsEarlyOnHugeSpaces) {
  // An unbounded counter with an immediate deadlock branch: the search must
  // terminate (BFS finds the depth-1 deadlock) even though full generation
  // would hit the state limit.
  Program p;
  p.define("Grow", {"n"},
           choice({prefix("UP", call("Grow", {evar("n") + lit(1)})),
                   prefix("DIE", stop())}));
  GenerateOptions opts;
  opts.max_states = 1000;
  const DeadlockSearchResult r = find_deadlock(p, "Grow", {0}, opts);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.trace.size(), 1u);
  EXPECT_LT(r.states_explored, 10u);
}

TEST(FindDeadlock, FindsCreditLeakInXstreamStyleModel) {
  // Miniature credit-loss model: one credit, never returned.
  Program p;
  p.define("Prod", {"cr"},
           guard(evar("cr") > lit(0),
                 prefix("SEND", call("Prod", {evar("cr") - lit(1)}))));
  const DeadlockSearchResult r = find_deadlock(p, "Prod", {1});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.trace[0], "SEND");
}

// --- generation: composition ------------------------------------------------------

TEST(Generate, SequentialComposition) {
  Program p;
  // (A; exit) >> (B; stop): A then tau then B.
  const Lts l = generate_term(
      p, seq(prefix("A", exit_()), prefix("B", stop())));
  EXPECT_EQ(l.num_states(), 4u);
  const auto ts = l.all_transitions();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(l.actions().name(ts[0].action), "A");
  // The exit of the first process becomes an internal step.
  bool has_tau = false;
  for (const auto& t : ts) {
    has_tau = has_tau || lts::ActionTable::is_tau(t.action);
  }
  EXPECT_TRUE(has_tau);
}

TEST(Generate, SeqPassesEnvironmentToContinuation) {
  Program p;
  p.define("Main", {"v"},
           seq(prefix("A", exit_()), prefix("OUT", {emit(evar("v"))}, stop())));
  const Lts l = generate(p, "Main", {42});
  bool saw = false;
  for (const auto& t : l.all_transitions()) {
    saw = saw || l.actions().name(t.action) == "OUT !42";
  }
  EXPECT_TRUE(saw);
}

TEST(Generate, InterleavingGeneratesDiamond) {
  Program p;
  const Lts l =
      generate_term(p, interleaving(prefix("A", stop()), prefix("B", stop())));
  EXPECT_EQ(l.num_states(), 4u);
  EXPECT_EQ(l.num_transitions(), 4u);
}

TEST(Generate, SynchronisationOnSharedGate) {
  Program p;
  const Lts l = generate_term(
      p, par(prefix("A", prefix("S", stop())), {"S"},
             prefix("B", prefix("S", stop()))));
  // A and B interleave, then S fires jointly: 4 + 1 states.
  EXPECT_EQ(l.num_states(), 5u);
  EXPECT_EQ(l.num_transitions(), 5u);
}

TEST(Generate, ValueNegotiationEmitAccept) {
  Program p;
  // Sender emits 3; receiver accepts 0..5 and then re-emits what it got.
  const Lts l = generate_term(
      p, par(prefix("CH", {emit(lit(3))}, stop()), {"CH"},
             prefix("CH", {accept("x", 0, 5)},
                    prefix("GOT", {emit(evar("x"))}, stop()))));
  ASSERT_EQ(l.out(l.initial_state()).size(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "CH !3");
  bool saw = false;
  for (const auto& t : l.all_transitions()) {
    saw = saw || l.actions().name(t.action) == "GOT !3";
  }
  EXPECT_TRUE(saw);
}

TEST(Generate, ValueMismatchBlocks) {
  Program p;
  const Lts l = generate_term(
      p, par(prefix("CH", {emit(lit(1))}, stop()), {"CH"},
             prefix("CH", {emit(lit(2))}, stop())));
  EXPECT_EQ(l.num_transitions(), 0u);
}

TEST(Generate, ExitSynchronisesInParallel) {
  Program p;
  const Lts l = generate_term(
      p, par(prefix("A", exit_()), {}, prefix("B", exit_())));
  // A and B interleave (4 states), then joint exit.
  EXPECT_EQ(l.num_states(), 5u);
  bool exit_seen = false;
  for (const auto& t : l.all_transitions()) {
    exit_seen = exit_seen || lts::ActionTable::is_exit(t.action);
  }
  EXPECT_TRUE(exit_seen);
}

TEST(Generate, HideMakesTau) {
  Program p;
  const Lts l = generate_term(
      p, hide({"S"}, par(prefix("S", stop()), {"S"}, prefix("S", stop()))));
  ASSERT_EQ(l.num_transitions(), 1u);
  EXPECT_TRUE(lts::ActionTable::is_tau(l.all_transitions()[0].action));
}

TEST(Generate, HideIsGateWide) {
  Program p;
  const Lts l = generate_term(
      p, hide({"CH"}, prefix("CH", {emit(lit(7))}, prefix("KEEP", stop()))));
  const auto ts = l.all_transitions();
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_TRUE(lts::ActionTable::is_tau(ts[0].action));
  EXPECT_EQ(l.actions().name(ts[1].action), "KEEP");
}

TEST(Generate, RenameChangesGateKeepsValues) {
  Program p;
  const Lts l = generate_term(
      p, rename({{"A", "B"}}, prefix("A", {emit(lit(1))}, stop())));
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "B !1");
}

TEST(Generate, RenameAffectsSynchronisationStructurally) {
  Program p;
  // rename A->S on left, then sync on S with right.
  const Lts l = generate_term(
      p, par(rename({{"A", "S"}}, prefix("A", stop())), {"S"},
             prefix("S", stop())));
  EXPECT_EQ(l.num_transitions(), 1u);
  EXPECT_EQ(l.actions().name(l.out(l.initial_state())[0].action), "S");
}

// --- end-to-end sanity: a 2-place buffer ----------------------------------------

Program buffer_program() {
  Program p;
  // Cell: forwards one value at a time from IN to OUT.
  p.define("CellA", {},
           prefix("IN", {accept("x", 0, 1)},
                  prefix("MID", {emit(evar("x"))}, call("CellA"))));
  p.define("CellB", {},
           prefix("MID", {accept("x", 0, 1)},
                  prefix("OUT", {emit(evar("x"))}, call("CellB"))));
  p.define("Buffer", {},
           hide({"MID"}, par(call("CellA"), {"MID"}, call("CellB"))));
  return p;
}

TEST(Generate, TwoPlaceBufferIsDeadlockFree) {
  const Program p = buffer_program();
  const Lts l = generate(p, "Buffer");
  EXPECT_TRUE(mc::check(l, mc::deadlock_freedom()));
  EXPECT_GT(l.num_states(), 4u);
}

TEST(Generate, BufferMinimisesToFifo) {
  // After hiding MID and minimising modulo branching bisimulation, the
  // 2-cell pipeline of 1-value buffers over {0,1} has the FIFO-of-capacity-2
  // quotient: 1 + 2 + 4 = 7 states.
  const Program p = buffer_program();
  const Lts l = generate(p, "Buffer");
  const auto r = bisim::minimize(l, bisim::Equivalence::kBranching);
  EXPECT_EQ(r.quotient.num_states(), 7u);
}

TEST(Generate, GeneratedLtsIsFullyReachable) {
  const Program p = buffer_program();
  const Lts l = generate(p, "Buffer");
  EXPECT_EQ(lts::trim(l).removed_states, 0u);
}

// --- golden pins ----------------------------------------------------------------
//
// The planned-vs-flat and 1..N-worker identity tests compare two runs of the
// same generator, so they cannot see a change both runs share.  These pins
// fix the exact .aut output (untrimmed), so any change to the generator that
// alters one byte of it fails here.

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The .aut hash of @p entry of @p p explored by four workers.
std::uint64_t hash_at_four_workers(const Program& p,
                                   const std::string& entry) {
  explore::ExploreOptions opts;
  opts.workers = 4;
  return fnv1a64(lts::to_aut(
      explore::explore(*oracle(std::make_shared<const Program>(p), call(entry)),
                       opts)
          .lts));
}

TEST(Generate, GoldenEdgeRouter3x3) {
  Program p;
  const noc::MeshDims dims{3, 3, 1};
  const std::string entry =
      noc::add_router(p, dims, 1, noc::default_ports(dims, 1));
  const Lts l = generate(p, entry);
  EXPECT_EQ(l.num_states(), 94080u);
  EXPECT_EQ(l.num_transitions(), 644000u);
  EXPECT_EQ(fnv1a64(lts::to_aut(l)), 0x79ea9cb68f5dc3feull);
  EXPECT_EQ(hash_at_four_workers(p, entry), 0x79ea9cb68f5dc3feull);
}

// Parallel operands built from >>/exit, hide and rename, with value passing
// and multiway synchronisation.
constexpr const char* kMixedModel = R"(
process Stage (v) := IN ?x:0..2 ; MID !((x + v) % 3) ; exit endproc
process Loop (v) := Stage (v) >> Loop ((v + 1) % 2) endproc
process Sink := MID ?y:0..2 ; ((OUT !y ; exit) [] (DROP ; exit)) >> Sink endproc
process Worker (id) := REQ !id ; WORK !id ; DONE !id ; Worker (id) endproc
process Arbiter := REQ ?k:1..2 ; DONE !k ; OUT ?z:0..2 ; Arbiter endproc
process Fork := ((A !1 ; exit) ||| (B !2 ; exit)) >> Fork endproc
process System :=
  ((hide MID in (Loop (0) |[MID]| Sink))
   |[OUT]|
   ((rename WORK -> BUSY in (Worker (1) ||| Worker (2))) |[REQ, DONE]| Arbiter))
  ||| Fork
endproc
)";

TEST(Generate, GoldenMixedOperators) {
  const Program p = parse_program(kMixedModel);
  const Lts l = generate(p, "System");
  EXPECT_EQ(l.num_states(), 1200u);
  EXPECT_EQ(l.num_transitions(), 4884u);
  EXPECT_EQ(fnv1a64(lts::to_aut(l)), 0xe0455f444f7fb6cfull);
  EXPECT_EQ(hash_at_four_workers(p, "System"), 0xe0455f444f7fb6cfull);
}

// --- errors inside parallel operands ---------------------------------------------
//
// Successors of parallel operands are memoised.  An operand whose successors
// throw must throw every time it is reached, and the depth bound must hold
// wherever a memoised operand is reused.

TEST(Generate, UnguardedRecursionInOperandAfterSteps) {
  const Program p = parse_program(R"(
    process Loop := Loop endproc
    process Count (n) := [n < 3] -> A ; Count (n + 1) [] [n == 3] -> Loop endproc
    process Clock := TICK ; Clock endproc
    process System := Count (0) ||| Clock endproc
  )");
  EXPECT_THROW((void)generate(p, "System"), UnguardedRecursion);
  EXPECT_THROW((void)find_deadlock(p, "System"), UnguardedRecursion);
}

TEST(Generate, DivisionByZeroInOperandAfterSteps) {
  const Program p = parse_program(R"(
    process Div (n) := A !(10 / (2 - n)) ; Div (n + 1) endproc
    process Clock := TICK ; Clock endproc
    process System := Clock ||| Div (0) endproc
  )");
  EXPECT_THROW((void)generate(p, "System"), std::domain_error);

  // A failed successor computation leaves no partial memo entry behind:
  // asking the oracle twice for the failing state throws twice.
  const explore::OraclePtr o =
      oracle(std::make_shared<const Program>(p), call("System"));
  explore::Steps steps(o->width());
  std::vector<explore::Word> state(o->width());
  o->initial(state);
  for (int step = 0; step < 2; ++step) {
    steps.clear();
    o->successors(state, steps);
    bool advanced = false;
    for (std::size_t i = 0; i < steps.size() && !advanced; ++i) {
      if (o->label(steps.label(i)).rfind("A !", 0) == 0) {
        const explore::StateView dst = steps.dst(i);
        state.assign(dst.begin(), dst.end());
        advanced = true;
      }
    }
    ASSERT_TRUE(advanced);
  }
  steps.clear();
  EXPECT_THROW(o->successors(state, steps), std::domain_error);
  EXPECT_THROW(o->successors(state, steps), std::domain_error);
}

TEST(Generate, DivisionByZeroPropagatesFromParallelWorkers) {
  // Wide offers 32 values at once, so the levels that reach Div (2) hold
  // dozens of states and are split over all four workers; every worker
  // that meets the failing operand throws.
  const Program p = parse_program(R"(
    process Div (n) := A !(10 / (2 - n)) ; Div (n + 1) endproc
    process Stay (x) := T !x ; Stay (x) endproc
    process Wide := W ?x:0..31 ; Stay (x) endproc
    process System := Wide ||| Div (0) endproc
  )");
  const explore::OraclePtr o =
      oracle(std::make_shared<const Program>(p), call("System"));
  explore::ExploreOptions opts;
  opts.workers = 4;
  EXPECT_THROW((void)explore::explore(*o, opts), std::domain_error);
  // The shared leaf table kept no entry for the failing operand.
  EXPECT_THROW((void)explore::explore(*o, opts), std::domain_error);
}

TEST(Generate, StateLimitInParallelModel) {
  const Program p = parse_program(R"(
    process Grow (n) := UP ; Grow (n + 1) endproc
    process Clock := TICK ; Clock endproc
    process System := Grow (0) ||| Clock endproc
  )");
  GenerateOptions opts;
  opts.max_states = 100;
  EXPECT_THROW((void)generate(p, "System", {}, opts), StateSpaceLimit);
}

TEST(Generate, DepthBoundHoldsWhereMemoisedOperandIsReused) {
  // The leaf of P sits two parallel levels deep on the left and three on
  // the right; its successors unfold four calls deep (Q, R, S, stop).  With
  // a bound of 6 the left copy fits and the right copy does not.
  const Program p = parse_program(R"(
    process S := stop endproc
    process R := S endproc
    process Q := R endproc
    process P := A ; Q endproc
    process System := (P ||| stop) ||| ((P ||| stop) ||| stop) endproc
  )");
  GenerateOptions opts;
  opts.max_unfold_depth = 6;
  EXPECT_THROW((void)generate(p, "System", {}, opts), UnguardedRecursion);
  opts.max_unfold_depth = 7;
  EXPECT_EQ(generate(p, "System", {}, opts).num_states(), 4u);
}

TEST(FindDeadlock, ShortestTraceInParallelModel) {
  const Program p = parse_program(R"(
    process Left := LOOP ; Left [] A ; S ; B ; stop endproc
    process Right := C ; S ; stop endproc
    process System := Left |[S]| Right endproc
  )");
  const DeadlockSearchResult r = find_deadlock(p, "System");
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.trace, (std::vector<std::string>{"A", "C", "S", "B"}));
}

}  // namespace
