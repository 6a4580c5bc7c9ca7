#include "compose/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <list>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/sync.hpp"
#include "explore/engine.hpp"
#include "explore/oracle.hpp"

namespace multival::compose {

NodePtr leaf(lts::Lts l, std::string name) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kLeaf;
  node->name = std::move(name);
  auto holder = std::make_shared<lts::Lts>(std::move(l));
  node->generator = [holder]() { return *holder; };
  return node;
}

NodePtr leaf(std::function<lts::Lts()> gen, std::string name) {
  if (!gen) {
    throw std::invalid_argument("compose::leaf: null generator");
  }
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kLeaf;
  node->name = std::move(name);
  node->generator = std::move(gen);
  return node;
}

NodePtr compose2(NodePtr a, std::vector<std::string> sync_gates, NodePtr b) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kPar;
  node->name = "par";
  node->children = {std::move(a), std::move(b)};
  node->gates = std::move(sync_gates);
  return node;
}

NodePtr hide_gates(std::vector<std::string> gates, NodePtr p) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kHide;
  node->name = "hide";
  node->children = {std::move(p)};
  node->gates = std::move(gates);
  return node;
}

NodePtr minimize_here(NodePtr p, bisim::Equivalence e) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kMinimize;
  node->name = std::string("min:") + bisim::to_string(e);
  node->children = {std::move(p)};
  node->equivalence = e;
  return node;
}

namespace {

/// Wall-clock timer for one pipeline step.
class StepTimer {
 public:
  StepTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

void record(EvalStats* stats, const std::string& what, const lts::Lts& l,
            std::size_t states_before, double seconds) {
  core::record_generation(core::GenerationStat{
      "pipeline: " + what, l.num_states(), l.num_transitions(), seconds});
  if (stats == nullptr) {
    return;
  }
  stats->peak_states = std::max(stats->peak_states, l.num_states());
  stats->peak_states = std::max(stats->peak_states, states_before);
  stats->peak_transitions =
      std::max(stats->peak_transitions, l.num_transitions());
  stats->steps.push_back(StepStat{what, states_before, l.num_states(), seconds});
}

class Evaluator {
 public:
  Evaluator(bool with_minimization, EvalStats* stats, MinimizeCache* cache,
            unsigned workers)
      : with_minimization_(with_minimization),
        stats_(stats),
        cache_(cache),
        workers_(workers == 0 ? 1 : workers) {}

  lts::Lts eval(const Node& n) {
    switch (n.kind) {
      case Node::Kind::kLeaf: {
        const StepTimer timer;
        lts::Lts l = n.generator();
        record(stats_, "generate " + n.name, l, l.num_states(),
               timer.seconds());
        return l;
      }
      case Node::Kind::kPar:
        return product(n, {});
      case Node::Kind::kHide: {
        // The planner's signature shape is hide-over-par: fuse it into one
        // exploration so gates hidden at this level become tau *during*
        // product generation and their chains are never stored.
        if (n.children[0]->kind == Node::Kind::kPar) {
          return product(*n.children[0], n.gates);
        }
        const lts::Lts inner = eval(*n.children[0]);
        const StepTimer timer;
        return run(explore::hide_oracle(explore::lts_oracle(inner), n.gates),
                   "hide", timer);
      }
      case Node::Kind::kMinimize: {
        if (with_minimization_ && cache_ != nullptr && !n.plan_key.empty()) {
          const StepTimer timer;
          if (std::optional<lts::Lts> cached =
                  cache_->lookup_subtree(n.plan_key)) {
            record(stats_, n.name + " (subtree cached)", *cached,
                   cached->num_states(), timer.seconds());
            return *std::move(cached);
          }
        }
        lts::Lts inner = eval(*n.children[0]);
        if (!with_minimization_) {
          return inner;
        }
        const std::size_t before = inner.num_states();
        const StepTimer timer;
        lts::Lts reduced;
        bool from_cache = false;
        if (cache_ != nullptr) {
          if (std::optional<lts::Lts> cached =
                  cache_->lookup(inner, n.equivalence)) {
            reduced = *std::move(cached);
            from_cache = true;
          }
        }
        if (!from_cache) {
          reduced = bisim::minimize(inner, n.equivalence).quotient;
          if (cache_ != nullptr) {
            cache_->store(inner, n.equivalence, reduced);
          }
        }
        if (cache_ != nullptr && !n.plan_key.empty()) {
          cache_->store_subtree(n.plan_key, reduced);
        }
        record(stats_, from_cache ? n.name + " (cached)" : n.name, reduced,
               before, timer.seconds());
        return reduced;
      }
    }
    throw std::logic_error("compose::evaluate: bad node kind");
  }

 private:
  /// `hide hidden in (a |[sync]| b)` for the operands of kPar node @p par.
  lts::Lts product(const Node& par, const std::vector<std::string>& hidden) {
    const lts::Lts a = eval(*par.children[0]);
    const lts::Lts b = eval(*par.children[1]);
    const StepTimer timer;
    explore::OraclePtr oracle = explore::product_oracle(
        explore::lts_oracle(a), explore::lts_oracle(b), par.gates);
    if (!hidden.empty()) {
      oracle = explore::hide_oracle(std::move(oracle), hidden);
    }
    return run(std::move(oracle),
               hidden.empty() ? "compose (on the fly)"
                              : "compose+hide (on the fly)",
               timer);
  }

  /// Explores @p oracle, contracting inert tau chains on the fly when
  /// reducing: only the compressed intermediate is ever stored.
  lts::Lts run(explore::OraclePtr oracle, const char* what,
               const StepTimer& timer) {
    if (with_minimization_) {
      oracle = explore::tau_compress(std::move(oracle));
    }
    explore::ExploreOptions eo;
    eo.workers = workers_;
    explore::ExploreResult r = explore::explore(*oracle, eo);
    record(stats_, what, r.lts, r.lts.num_states(), timer.seconds());
    return std::move(r.lts);
  }

  bool with_minimization_;
  EvalStats* stats_;
  MinimizeCache* cache_;
  unsigned workers_;
};

/// Estimated resident bytes of a cached LTS (budgeting, not accounting).
std::size_t approx_bytes(const lts::Lts& l) {
  std::size_t bytes = 16 * l.num_states() + 12 * l.num_transitions();
  for (lts::ActionId a = 0; a < l.actions().size(); ++a) {
    bytes += 32 + l.actions().name(a).size();
  }
  return bytes;
}

/// Content key of a minimisation-cache entry: a 128-bit FNV-1a over the
/// semantic content (initial state, transitions with label *text*), split
/// into two independent lanes like serve::Hasher but without the serve
/// dependency.
std::string content_key(const lts::Lts& l, bisim::Equivalence e) {
  std::uint64_t h1 = 1469598103934665603ull;
  std::uint64_t h2 = 14695981039346656037ull;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<std::uint64_t>((v >> (8 * i)) & 0xff);
      h1 = (h1 ^ byte) * 1099511628211ull;
      h2 = (h2 ^ (byte + 0x9e)) * 1099511628211ull;
    }
  };
  const auto mix_str = [&](std::string_view s) {
    mix(s.size());
    for (const char c : s) {
      h1 = (h1 ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      h2 = (h2 ^ (static_cast<unsigned char>(c) + 0x9e)) * 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(e));
  mix(l.num_states());
  mix(l.initial_state());
  for (lts::StateId s = 0; s < l.num_states(); ++s) {
    for (const auto& t : l.out(s)) {
      mix(s);
      mix_str(l.actions().name(t.action));
      mix(t.dst);
    }
  }
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2));
  return std::string("c:") + buf;
}

}  // namespace

double EvalStats::total_seconds() const {
  double total = 0.0;
  for (const StepStat& s : steps) {
    total += s.seconds;
  }
  return total;
}

core::Table EvalStats::to_table(const std::string& title) const {
  core::Table t(title, {"step", "states", "time (ms)"});
  for (const StepStat& s : steps) {
    const std::string size =
        s.states_before == s.states_after
            ? std::to_string(s.states_after)
            : std::to_string(s.states_before) + " -> " +
                  std::to_string(s.states_after);
    t.add_row({s.description, size, core::fmt(s.seconds * 1e3, 2)});
  }
  t.add_row({"total (peak " + std::to_string(peak_states) + " states)", "",
             core::fmt(total_seconds() * 1e3, 2)});
  return t;
}

std::optional<lts::Lts> MinimizeCache::lookup_subtree(
    const std::string& /*plan_key*/) {
  return std::nullopt;
}

void MinimizeCache::store_subtree(const std::string& /*plan_key*/,
                                  const lts::Lts& /*reduced*/) {}

// ---- LruMinimizeCache -------------------------------------------------------

struct LruMinimizeCache::Impl {
  struct Entry {
    std::string key;
    lts::Lts value;
    std::size_t bytes = 0;
  };

  explicit Impl(std::size_t cap) : capacity(cap) {}

  std::optional<lts::Lts> get(const std::string& key) {
    const core::MutexLock lock(mu);
    const auto it = map.find(key);
    if (it == map.end()) {
      ++stats.misses;
      return std::nullopt;
    }
    lru.splice(lru.begin(), lru, it->second);
    ++stats.hits;
    return it->second->value;
  }

  void put(const std::string& key, const lts::Lts& value) {
    const core::MutexLock lock(mu);
    const std::size_t entry_bytes = approx_bytes(value);
    if (const auto it = map.find(key); it != map.end()) {
      bytes -= it->second->bytes;
      lru.erase(it->second);
      map.erase(it);
    }
    lru.push_front(Entry{key, value, entry_bytes});
    map[key] = lru.begin();
    bytes += entry_bytes;
    ++stats.insertions;
    while (bytes > capacity && lru.size() > 1) {
      const Entry& victim = lru.back();
      bytes -= victim.bytes;
      map.erase(victim.key);
      lru.pop_back();
      ++stats.evictions;
    }
  }

  std::size_t capacity;
  mutable core::Mutex mu;
  std::list<Entry> lru MV_GUARDED_BY(mu);  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> map
      MV_GUARDED_BY(mu);
  std::size_t bytes MV_GUARDED_BY(mu) = 0;
  Stats stats MV_GUARDED_BY(mu);
};

LruMinimizeCache::LruMinimizeCache(std::size_t capacity_bytes)
    : impl_(std::make_unique<Impl>(capacity_bytes)) {}

LruMinimizeCache::~LruMinimizeCache() = default;

std::optional<lts::Lts> LruMinimizeCache::lookup(const lts::Lts& input,
                                                 bisim::Equivalence e) {
  return impl_->get(content_key(input, e));
}

void LruMinimizeCache::store(const lts::Lts& input, bisim::Equivalence e,
                             const lts::Lts& reduced) {
  impl_->put(content_key(input, e), reduced);
}

std::optional<lts::Lts> LruMinimizeCache::lookup_subtree(
    const std::string& plan_key) {
  return impl_->get("p:" + plan_key);
}

void LruMinimizeCache::store_subtree(const std::string& plan_key,
                                     const lts::Lts& reduced) {
  impl_->put("p:" + plan_key, reduced);
}

LruMinimizeCache::Stats LruMinimizeCache::stats() const {
  const core::MutexLock lock(impl_->mu);
  return impl_->stats;
}

std::size_t LruMinimizeCache::entries() const {
  const core::MutexLock lock(impl_->mu);
  return impl_->lru.size();
}

std::size_t LruMinimizeCache::bytes() const {
  const core::MutexLock lock(impl_->mu);
  return impl_->bytes;
}

// ---- evaluation entry points ------------------------------------------------

lts::Lts evaluate(const NodePtr& root, bool with_minimization,
                  EvalStats* stats, MinimizeCache* min_cache,
                  unsigned workers) {
  if (root == nullptr) {
    throw std::invalid_argument("compose::evaluate: null root");
  }
  return Evaluator(with_minimization, stats, min_cache, workers).eval(*root);
}

Comparison compare_strategies(const NodePtr& root) {
  Comparison cmp;
  const lts::Lts with = evaluate(root, true, &cmp.compositional);
  const lts::Lts without = evaluate(root, false, &cmp.monolithic);
  cmp.equivalent =
      bisim::equivalent(with, without, bisim::Equivalence::kBranching);
  return cmp;
}

}  // namespace multival::compose
