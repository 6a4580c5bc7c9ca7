#include "serve_mix.hpp"

#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lts/lts_io.hpp"
#include "noc/router.hpp"
#include "xstream/queue_model.hpp"

namespace mvbench {

namespace {

using namespace multival;

/// splitmix64: a small, portable generator (the same seed gives the same
/// requests with any standard library).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(next() % span);
  }
  /// A rate with two decimals in [lo, hi] hundredths.
  std::string rate(int lo, int hi) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", range(lo, hi) / 100.0);
    return buf;
  }

 private:
  std::uint64_t state_;
};

/// Extended-.aut text of a CTMC/IMC given as (src, label, dst) triples over
/// states numbered in discovery order (state 0 is initial).
class AutBuilder {
 public:
  using Key = std::uint64_t;
  std::size_t state(Key k) {
    const auto [it, fresh] = ids_.emplace(k, ids_.size());
    if (fresh) {
      pending_.push_back(k);
    }
    return it->second;
  }
  bool next_pending(Key& k) {
    if (cursor_ == pending_.size()) {
      return false;
    }
    k = pending_[cursor_++];
    return true;
  }
  void edge(std::size_t src, const std::string& label, std::size_t dst) {
    lines_ += "(" + std::to_string(src) + ", \"" + label + "\", " +
              std::to_string(dst) + ")\n";
    ++edges_;
  }
  [[nodiscard]] std::string text() const {
    return "des (0, " + std::to_string(edges_) + ", " +
           std::to_string(ids_.size()) + ")\n" + lines_;
  }

 private:
  std::unordered_map<Key, std::size_t> ids_;
  std::vector<Key> pending_;
  std::size_t cursor_ = 0;
  std::string lines_;
  std::size_t edges_ = 0;
};

constexpr std::uint64_t pack(int s, int a, int b, int pending = 0) {
  return (static_cast<std::uint64_t>(s) << 32) |
         (static_cast<std::uint64_t>(a) << 16) |
         (static_cast<std::uint64_t>(b) << 1) |
         static_cast<std::uint64_t>(pending);
}

/// Ergodic tandem of two bounded queues: ARRIVE -> q1 -HOP-> q2 -DEPART->.
std::string tandem_model(int c1, int c2, const std::string& lam,
                         const std::string& mu1, const std::string& mu2) {
  AutBuilder b;
  b.state(pack(0, 0, 0));
  for (std::uint64_t k = 0; b.next_pending(k);) {
    const int a = static_cast<int>((k >> 16) & 0xffff);
    const int q = static_cast<int>((k >> 1) & 0x7fff);
    const std::size_t src = b.state(k);
    if (a < c1) {
      b.edge(src, "ARRIVE; rate " + lam, b.state(pack(0, a + 1, q)));
    }
    if (a > 0 && q < c2) {
      b.edge(src, "HOP; rate " + mu1, b.state(pack(0, a - 1, q + 1)));
    }
    if (q > 0) {
      b.edge(src, "DEPART; rate " + mu2, b.state(pack(0, a, q - 1)));
    }
  }
  return b.text();
}

/// Finite burst of n items through the same tandem; absorbed when the last
/// item has departed (the xSTream drain shape).
std::string drain_model(int n, int c1, int c2, const std::string& lam,
                        const std::string& mu1, const std::string& mu2) {
  AutBuilder b;
  b.state(pack(n, 0, 0));
  for (std::uint64_t k = 0; b.next_pending(k);) {
    const int s = static_cast<int>(k >> 32);
    const int a = static_cast<int>((k >> 16) & 0xffff);
    const int q = static_cast<int>((k >> 1) & 0x7fff);
    const std::size_t src = b.state(k);
    if (s > 0 && a < c1) {
      b.edge(src, "INJECT; rate " + lam, b.state(pack(s - 1, a + 1, q)));
    }
    if (a > 0 && q < c2) {
      b.edge(src, "HOP; rate " + mu1, b.state(pack(s, a - 1, q + 1)));
    }
    if (q > 0) {
      b.edge(src, "DEPART; rate " + mu2, b.state(pack(s, a, q - 1)));
    }
  }
  return b.text();
}

/// Burst of n items dispatched by a scheduler to one of two bounded
/// queues: each injection ends in a choice TOA / TOB (nondeterministic,
/// hence solved with scheduler bounds).
std::string dispatch_model(int n, int ca, int cb, const std::string& lam,
                           const std::string& mua, const std::string& mub) {
  AutBuilder b;
  b.state(pack(n, 0, 0));
  for (std::uint64_t k = 0; b.next_pending(k);) {
    const int s = static_cast<int>(k >> 32);
    const int a = static_cast<int>((k >> 16) & 0xffff);
    const int q = static_cast<int>((k >> 1) & 0x7fff);
    const bool pending = (k & 1) != 0;
    const std::size_t src = b.state(k);
    if (pending) {
      if (a < ca) {
        b.edge(src, "TOA", b.state(pack(s, a + 1, q)));
      }
      if (q < cb) {
        b.edge(src, "TOB", b.state(pack(s, a, q + 1)));
      }
      continue;
    }
    if (s > 0 && (a < ca || q < cb)) {
      b.edge(src, "INJECT; rate " + lam, b.state(pack(s - 1, a, q, 1)));
    }
    if (a > 0) {
      b.edge(src, "DONEA; rate " + mua, b.state(pack(s, a - 1, q)));
    }
    if (q > 0) {
      b.edge(src, "DONEB; rate " + mub, b.state(pack(s, a, q - 1)));
    }
  }
  return b.text();
}


std::string check_formula(Rng& rng, const CheckModel& m) {
  const std::string gate = m.gates[rng.next() % m.gates.size()];
  switch (rng.range(0, 2)) {
    case 0:
      return "nu X. (<any> tt && [any] X)";
    case 1:
      return "mu X. (<'" + gate + "*'> tt || <any> X)";
    default: {
      // The gate is enabled after exactly d steps on some path.
      std::string f = "<'" + gate + "*'> tt";
      for (int d = rng.range(1, 24); d > 0; --d) {
        f = "<any> " + f;
      }
      return f;
    }
  }
}

// Fresh requests of a round, per verb.
constexpr int kFreshThroughput = 8;
constexpr int kFreshReach = 7;
constexpr int kFreshBounds = 4;
constexpr int kFreshCheck = 5;

/// Level j of k evenly spaced levels in [lo, hi]: model sizes are
/// stratified so every round carries the same spread of work.
int level(int j, int k, int lo, int hi) {
  return lo + (hi - lo) * (2 * j + 1) / (2 * k);
}

/// Independent generator for (seed, round, stream).
Rng rng_for(std::uint64_t seed, std::uint64_t round, std::uint64_t stream) {
  Rng mix(seed);
  return Rng(mix.next() ^ (round * 0x9e3779b97f4a7c15ull) ^ (stream << 56));
}

/// The fresh requests of @p round, grouped by verb (throughput, reach,
/// bounds, check) in the order of the constants above.
std::vector<serve::Request> fresh_requests(
    std::uint64_t seed, std::uint64_t round,
    const std::vector<CheckModel>& checks) {
  Rng rng = rng_for(seed, round, 0);
  std::vector<serve::Request> out;
  static const char* kGlobs[] = {"DEPART*", "HOP*", "ARRIVE*"};
  for (int j = 0; j < kFreshThroughput; ++j) {
    serve::Request r;
    r.verb = serve::Verb::kThroughput;
    const int c = level(j, kFreshThroughput, 30, 60);
    r.payload = tandem_model(c, c, rng.rate(95, 105), rng.rate(180, 220),
                             rng.rate(180, 220));
    r.arg = kGlobs[rng.range(0, 2)];
    out.push_back(std::move(r));
  }
  for (int j = 0; j < kFreshReach; ++j) {
    serve::Request r;
    r.verb = serve::Verb::kReach;
    const int n = level(j, kFreshReach, 17, 27);
    r.payload = drain_model(n, n, n, rng.rate(180, 220), rng.rate(180, 220),
                            rng.rate(180, 220));
    r.arg = std::to_string(rng.range(n, n + n / 4));
    out.push_back(std::move(r));
  }
  for (int j = 0; j < kFreshBounds; ++j) {
    serve::Request r;
    r.verb = serve::Verb::kBounds;
    const int n = level(j, kFreshBounds, 12, 18);
    r.payload = dispatch_model(n, n - 1, n - 1, rng.rate(180, 220),
                               rng.rate(100, 140), rng.rate(100, 140));
    out.push_back(std::move(r));
  }
  for (int j = 0; j < kFreshCheck; ++j) {
    serve::Request r;
    r.verb = serve::Verb::kCheck;
    const CheckModel& m = checks[static_cast<std::size_t>(j) % checks.size()];
    r.payload = m.aut;
    r.arg = check_formula(rng, m);
    out.push_back(std::move(r));
  }
  return out;
}

/// A request on the same model as @p base with another argument (reach:
/// time bound, throughput: label glob, check: formula).
serve::Request variant_of(Rng& rng, const serve::Request& base,
                          const std::vector<CheckModel>& checks) {
  serve::Request r = base;
  switch (base.verb) {
    case serve::Verb::kThroughput: {
      static const char* kGlobs[] = {"DEPART*", "HOP*", "ARRIVE*", "*"};
      r.arg = kGlobs[rng.range(0, 3)];
      break;
    }
    case serve::Verb::kReach:  // a slightly earlier time bound
      r.arg = std::to_string(std::stoi(base.arg) - rng.range(1, 5));
      break;
    case serve::Verb::kCheck:
      for (const CheckModel& m : checks) {
        if (m.aut == base.payload) {
          r.arg = check_formula(rng, m);
        }
      }
      break;
    default:
      break;
  }
  return r;
}

/// Seeded permutation of [first, first + n).
std::vector<std::size_t> shuffled(Rng& rng, std::size_t first, std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = first + i;
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(v[i - 1], v[rng.next() % i]);
  }
  return v;
}

}  // namespace

std::vector<CheckModel> build_check_models() {
  std::vector<CheckModel> models;
  xstream::QueueConfig queue;
  queue.capacity = 3;
  queue.max_value = 2;
  models.push_back({lts::to_aut(xstream::virtual_queue_lts(queue)),
                    {"PUSH", "POP"}});
  models.push_back({lts::to_aut(noc::router_lts(0, {2, 2, 1})),
                    {"LO0", "EO0", "SO0", "LI0"}});
  return models;
}

std::vector<serve::Request> make_round(std::uint64_t seed, std::size_t round,
                                       const std::vector<CheckModel>& checks) {
  const std::vector<serve::Request> fresh =
      fresh_requests(seed, round, checks);
  // Round 0 repeats a "previous round" that was never sent: its 12
  // repeats are fresh solves.
  const std::vector<serve::Request> previous = fresh_requests(
      seed, round == 0 ? ~std::uint64_t{0} : round - 1, checks);
  Rng rng = rng_for(seed, round, 1);

  // Per verb: the first fresh request in seeded order gets a duplicate, the
  // next ones (3 throughput, 3 reach, 2 check) a variant; the leading ones
  // of another permutation of the previous round are repeated exactly.  A
  // unit is a request and its duplicate or variant, if any.
  struct Split {
    std::size_t first, n, variants, repeats;
  };
  const Split splits[] = {
      {0, kFreshThroughput, 3, 4},
      {kFreshThroughput, kFreshReach, 3, 4},
      {kFreshThroughput + kFreshReach, kFreshBounds, 0, 2},
      {kFreshThroughput + kFreshReach + kFreshBounds, kFreshCheck, 2, 2},
  };
  std::vector<std::vector<serve::Request>> units;
  for (const Split& split : splits) {
    const std::vector<std::size_t> order = shuffled(rng, split.first, split.n);
    for (std::size_t k = 0; k < order.size(); ++k) {
      std::vector<serve::Request> unit = {fresh[order[k]]};
      if (k == 0) {
        unit.push_back(fresh[order[k]]);
      } else if (k <= split.variants) {
        unit.push_back(variant_of(rng, fresh[order[k]], checks));
      }
      units.push_back(std::move(unit));
    }
    const std::vector<std::size_t> old = shuffled(rng, split.first, split.n);
    for (std::size_t k = 0; k < split.repeats; ++k) {
      units.push_back({previous[old[k]]});
    }
  }
  std::vector<serve::Request> requests;
  for (const std::size_t u : shuffled(rng, 0, units.size())) {
    for (serve::Request& request : units[u]) {
      request.id = requests.size() + 1;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

}  // namespace mvbench
