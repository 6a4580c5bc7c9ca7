// Golden minimisation outputs: block counts, quotient transition counts and
// the FNV-1a hash of the quotient's .aut text, pinned for strong, weak
// (where saturation is tractable), branching and divbranching on three case
// studies.  Any change to block numbering, edge order or action interning in
// bisim/ changes a hash here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bisim/equivalence.hpp"
#include "compose/plan.hpp"
#include "fame/coherence_n.hpp"
#include "lts/lts_io.hpp"
#include "lts/product.hpp"
#include "noc/router.hpp"
#include "xstream/queue_model.hpp"

namespace {

using namespace multival;
using bisim::Equivalence;

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  Equivalence equivalence;
  std::size_t blocks;
  std::size_t transitions;
  std::uint64_t aut_hash;
};

void expect_golden(const lts::Lts& l, const Golden& g) {
  SCOPED_TRACE(bisim::to_string(g.equivalence));
  const bisim::MinimizeResult r = bisim::minimize(l, g.equivalence);
  EXPECT_EQ(r.partition.num_blocks(), g.blocks);
  EXPECT_EQ(r.quotient.num_states(), g.blocks);
  EXPECT_EQ(r.quotient.num_transitions(), g.transitions);
  const std::uint64_t hash = fnv1a64(lts::to_aut(r.quotient));
  EXPECT_EQ(hash, g.aut_hash) << std::hex << "0x" << hash;
}

TEST(BisimGolden, EdgeRouter) {
  // Saturating 94,080 states for weak bisimulation is not tractable here.
  const lts::Lts l = noc::router_lts(1, {3, 3});
  ASSERT_EQ(l.num_states(), 94080u);
  for (const Golden& g : {
           Golden{Equivalence::kStrong, 94080, 644000, 0x79ea9cb68f5dc3feull},
           Golden{Equivalence::kBranching,
                  94080, 644000, 0xf371b084d1b91477ull},
           Golden{Equivalence::kDivergenceBranching,
                  94080, 644000, 0xf371b084d1b91477ull},
       }) {
    expect_golden(l, g);
  }
}

TEST(BisimGolden, FlatMesi3Node) {
  const lts::Lts l = fame::coherence_system_n_lts(fame::Protocol::kMesi, 3,
                                                  compose::Strategy::kFlat);
  ASSERT_EQ(l.num_states(), 5402u);
  for (const Golden& g : {
           Golden{Equivalence::kStrong, 1253, 4791, 0xd0d15dac5d3f5cdeull},
           Golden{Equivalence::kWeak, 1253, 4791, 0xd0d15dac5d3f5cdeull},
           Golden{Equivalence::kBranching, 1253, 4791, 0xd0d15dac5d3f5cdeull},
           Golden{Equivalence::kDivergenceBranching,
                  1253, 4791, 0xd0d15dac5d3f5cdeull},
       }) {
    expect_golden(l, g);
  }
}

TEST(BisimGolden, Mesi3NodeObservingNode0) {
  // Only node 0's processor requests and data replies stay visible, so the
  // protocol traffic becomes tau and branching collapses it.  Weak
  // saturation of this tau-dense LTS is not tractable here.
  const std::vector<std::string> visible{"RD0_M", "WR0_M", "RDD0_M",
                                         "WRD0_M"};
  const lts::Lts l = lts::hide_all_but(
      fame::coherence_system_n_lts(fame::Protocol::kMesi, 3,
                                   compose::Strategy::kFlat),
      visible);
  for (const Golden& g : {
           Golden{Equivalence::kStrong, 625, 2283, 0xe93920fe05c195f4ull},
           Golden{Equivalence::kBranching, 3, 4, 0x0dc56aa79acaf707ull},
           Golden{Equivalence::kDivergenceBranching,
                  31, 124, 0x230489aba2e4dccdull},
       }) {
    expect_golden(l, g);
  }
}

TEST(BisimGolden, XstreamDrainWithProtocolHidden) {
  xstream::QueueConfig cfg;
  cfg.capacity = 2;
  cfg.max_value = 1;
  const std::vector<std::string> hidden{"NET", "CREDIT"};
  const lts::Lts l = lts::hide(
      xstream::drain_scenario_lts(cfg, 3, compose::Strategy::kFlat), hidden);
  for (const Golden& g : {
           Golden{Equivalence::kStrong, 26, 39, 0xd886bbcb54770ec8ull},
           Golden{Equivalence::kWeak, 10, 12, 0xa4987e6c10b6e30cull},
           Golden{Equivalence::kBranching, 10, 12, 0xa4987e6c10b6e30cull},
           Golden{Equivalence::kDivergenceBranching,
                  10, 12, 0xa4987e6c10b6e30cull},
       }) {
    expect_golden(l, g);
  }
}

}  // namespace
