// The seeded request mix of the serve-ctmc workload: xSTream-shaped CTMC
// and IMC payloads, case-study LTSs for check requests, and rounds of
// requests.  The same seed gives the same requests with any standard
// library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace mvbench {

/// Case-study LTSs the check requests run on, with the gates their
/// formulas may name.
struct CheckModel {
  std::string aut;
  std::vector<std::string> gates;
};

/// Builds the case-study LTSs (an xSTream virtual queue, a 2x2 NoC router).
[[nodiscard]] std::vector<CheckModel> build_check_models();

/// Round @p round of the traffic for @p seed: 24 fresh requests, 12 exact
/// repeats of the previous round, and 4 duplicates and 8 same-model
/// variants, each placed right after its original so that another
/// connection sends it while the original is still in flight.
[[nodiscard]] std::vector<multival::serve::Request> make_round(
    std::uint64_t seed, std::size_t round,
    const std::vector<CheckModel>& checks);

}  // namespace mvbench
