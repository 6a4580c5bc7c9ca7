// Differential tests: the library's minimisation against the reference
// refinement of bisim_reference.hpp on seeded random LTSs.  Block ids are
// compared exactly (not just the grouping) and quotients byte for byte.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bisim/branching.hpp"
#include "bisim/equivalence.hpp"
#include "bisim/strong.hpp"
#include "bisim_reference.hpp"
#include "lts/lts_io.hpp"

namespace {

using namespace multival;
using namespace multival::bisim;
using namespace multival::bisim::testing;
using lts::Lts;
using lts::StateId;

constexpr std::uint32_t kSeeds = 200;

/// A random LTS shaped to stress minimisation: tau-rich, with planted tau
/// cycles (including tau self-loops), deadlocked states and duplicate edges.
Lts oracle_lts(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const std::size_t n = pick(1, 48);
  const std::size_t num_labels = pick(1, 4);
  const double tau_fraction = 0.2 + 0.6 * coin(rng);
  Lts l;
  l.add_states(n);
  std::vector<bool> deadlock(n, false);
  for (std::size_t s = 1; s < n; ++s) {
    deadlock[s] = coin(rng) < 0.15;
  }
  const auto state = [&] { return static_cast<StateId>(pick(0, n - 1)); };
  const auto label = [&]() -> std::string {
    if (coin(rng) < tau_fraction) {
      return "i";
    }
    return "L" + std::to_string(pick(0, num_labels - 1));
  };
  const std::size_t edges = pick(0, 3 * n);
  for (std::size_t i = 0; i < edges; ++i) {
    const StateId src = state();
    if (deadlock[src]) {
      continue;
    }
    const StateId dst = state();
    const std::string a = label();
    l.add_transition(src, a, dst);
    if (coin(rng) < 0.1) {
      l.add_transition(src, a, dst);  // duplicate edge
    }
  }
  const std::size_t cycles = pick(0, 3);
  for (std::size_t k = 0; k < cycles; ++k) {
    const std::size_t len = pick(1, 4);
    std::vector<StateId> ring;
    for (std::size_t j = 0; j < len; ++j) {
      const StateId s = state();
      if (!deadlock[s]) {
        ring.push_back(s);
      }
    }
    for (std::size_t j = 0; j < ring.size(); ++j) {
      l.add_transition(ring[j], "i", ring[(j + 1) % ring.size()]);
    }
  }
  l.set_initial_state(state());
  return l;
}

/// A non-trivial initial partition over @p n states (seeded).
Partition oracle_partition(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed ^ 0x9e3779b9u);
  const std::size_t k = std::uniform_int_distribution<std::size_t>(1, 4)(rng);
  std::uniform_int_distribution<BlockId> block(0, static_cast<BlockId>(k - 1));
  std::vector<BlockId> block_of(n);
  for (BlockId& b : block_of) {
    b = block(rng);
  }
  return Partition(std::move(block_of), k);
}

void expect_same_blocks(const Partition& got, const Partition& want) {
  ASSERT_EQ(got.num_states(), want.num_states());
  EXPECT_EQ(got.num_blocks(), want.num_blocks());
  for (StateId s = 0; s < got.num_states(); ++s) {
    ASSERT_EQ(got.block_of(s), want.block_of(s)) << "state " << s;
  }
}

void expect_same_minimisation(const Lts& l, Equivalence e) {
  const MinimizeResult got = minimize(l, e);
  const MinimizeResult want = reference_minimize(l, e);
  expect_same_blocks(got.partition, want.partition);
  EXPECT_EQ(lts::to_aut(got.quotient), lts::to_aut(want.quotient));
}

TEST(BisimOracle, StrongMatchesReference) {
  for (std::uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Lts l = oracle_lts(seed);
    expect_same_minimisation(l, Equivalence::kStrong);
    const Partition init = oracle_partition(seed, l.num_states());
    expect_same_blocks(strong_partition(l, init),
                       reference_strong_partition(l, init));
  }
}

TEST(BisimOracle, WeakMatchesReference) {
  for (std::uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_same_minimisation(oracle_lts(seed), Equivalence::kWeak);
  }
}

TEST(BisimOracle, BranchingMatchesReference) {
  for (std::uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Lts l = oracle_lts(seed);
    expect_same_minimisation(l, Equivalence::kBranching);
    const Partition init = oracle_partition(seed, l.num_states());
    expect_same_blocks(branching_partition(l, init, {false}),
                       reference_branching_partition(l, init, {false}));
  }
}

TEST(BisimOracle, DivBranchingMatchesReference) {
  for (std::uint32_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Lts l = oracle_lts(seed);
    expect_same_minimisation(l, Equivalence::kDivergenceBranching);
    const Partition init = oracle_partition(seed, l.num_states());
    expect_same_blocks(branching_partition(l, init, {true}),
                       reference_branching_partition(l, init, {true}));
  }
}

TEST(BisimOracle, EmptyLts) {
  const Lts empty;
  for (const auto e : {Equivalence::kStrong, Equivalence::kWeak,
                       Equivalence::kBranching,
                       Equivalence::kDivergenceBranching}) {
    SCOPED_TRACE(to_string(e));
    expect_same_minimisation(empty, e);
  }
}

}  // namespace
