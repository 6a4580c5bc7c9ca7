#include "explore/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <utility>

#include "core/parallel.hpp"

namespace multival::explore {

namespace {

struct Edge {
  LabelId label = kTau;  // in the expanding worker's label space
  lts::StateId dst = 0;
};

/// The out-edges of one expanded state: edges[begin, begin + count) of the
/// worker that expanded it.
struct Row {
  lts::StateId src = 0;
  std::uint32_t count = 0;
  std::size_t begin = 0;
};

/// States awaiting expansion, flat: ids and their words.
class Queue {
 public:
  explicit Queue(std::size_t width) : width_(width) {}

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  [[nodiscard]] lts::StateId id(std::size_t i) const { return ids_[i]; }
  [[nodiscard]] StateView state(std::size_t i) const {
    return {words_.data() + i * width_, width_};
  }

  void push(lts::StateId id, StateView state) {
    ids_.push_back(id);
    words_.insert(words_.end(), state.begin(), state.end());
  }
  void append(const Queue& other) {
    ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
    words_.insert(words_.end(), other.words_.begin(), other.words_.end());
  }
  void pop_back() {
    ids_.pop_back();
    words_.resize(words_.size() - width_);
  }
  void clear() {
    ids_.clear();
    words_.clear();
  }

 private:
  std::size_t width_;
  std::vector<lts::StateId> ids_;
  std::vector<Word> words_;
};

/// Cache-line aligned: workers update their own members on every
/// expansion, side by side in one vector.
struct alignas(64) Worker {
  Worker(OraclePtr o, std::size_t width)
      : oracle(std::move(o)), steps(width), next(width) {}

  OraclePtr oracle;
  Steps steps;  // scratch
  std::vector<Row> rows;
  std::vector<Edge> edges;
  Queue next;  // states this worker discovered
  WorkerStats stats;

  /// Expands state @p id; returns its number of successors.
  std::size_t expand(lts::StateId id, StateView state, StateStore& store) {
    steps.clear();
    oracle->successors(state, steps);
    rows.push_back(Row{id, static_cast<std::uint32_t>(steps.size()),
                       edges.size()});
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StateStore::Inserted r = store.insert(steps.dst(i));
      if (r.fresh) {
        next.push(r.id, steps.dst(i));
      }
      edges.push_back(Edge{steps.label(i), r.id});
    }
    ++stats.states_expanded;
    stats.transitions += steps.size();
    return steps.size();
  }
};

/// The search behind explore and find_deadlock.
class Search {
 public:
  Search(const SuccessorOracle& oracle, const ExploreOptions& options,
         unsigned workers)
      : options_(options),
        width_(prepare(oracle, workers)),
        store_(width_, StateStore::Options{options.store,
                                           options.fingerprint_bits, 64}) {}

  /// Expands every reachable state or, if @p stop_at_deadlock (sequential
  /// BFS only), stops after the first state without successors and returns
  /// it.
  std::optional<lts::StateId> run(ExploreStats& stats, bool stop_at_deadlock) {
    Queue frontier(width_);
    std::vector<Word> init(width_);
    workers_[0].oracle->initial(init);
    frontier.push(store_.insert(init).id, init);
    if (options_.order == Order::kDfs) {
      // frontier doubles as the DFS stack.
      Worker& w = workers_[0];
      std::vector<Word> cur(width_);
      while (!frontier.empty()) {
        stats.peak_frontier = std::max(stats.peak_frontier, frontier.size());
        ++stats.levels;
        const lts::StateId id = frontier.id(frontier.size() - 1);
        const StateView top = frontier.state(frontier.size() - 1);
        std::copy(top.begin(), top.end(), cur.begin());
        frontier.pop_back();
        w.expand(id, cur, store_);
        check_cap();
        frontier.append(w.next);
        w.next.clear();
      }
      return std::nullopt;
    }
    std::optional<lts::StateId> deadlock;
    std::atomic<bool> abort{false};
    while (!frontier.empty() && !deadlock) {
      stats.peak_frontier = std::max(stats.peak_frontier, frontier.size());
      ++stats.levels;
      // Contiguous chunks per worker (small frontiers collapse to one
      // worker); worker w owns workers_[w], so its oracle clone, rows and
      // label ids stay thread-private.  A failing worker stops the others.
      core::parallel_chunks(
          frontier.size(), static_cast<unsigned>(workers_.size()),
          /*min_grain=*/4, [&](unsigned w, std::size_t lo, std::size_t hi) {
            try {
              for (std::size_t i = lo;
                   i < hi && !abort.load(std::memory_order_relaxed); ++i) {
                const std::size_t n =
                    workers_[w].expand(frontier.id(i), frontier.state(i),
                                       store_);
                check_cap();
                if (stop_at_deadlock && n == 0) {
                  deadlock = frontier.id(i);
                  return;
                }
              }
            } catch (...) {
              abort.store(true, std::memory_order_relaxed);
              throw;
            }
          });
      frontier.clear();
      for (Worker& w : workers_) {
        frontier.append(w.next);
        w.next.clear();
      }
    }
    return deadlock;
  }

  /// Deterministic BFS renumbering from the initial state (id 0: the very
  /// first insert) and emission into a fresh Lts.  The traversal only looks
  /// at the explored graph, so the result is independent of how the ids
  /// were interleaved across workers.  Each worker's label ids are
  /// interned as actions once, in order of first emission.
  [[nodiscard]] lts::Lts emit() const {
    struct RowRef {
      std::uint32_t worker = 0;
      std::uint32_t row = 0;
    };
    const std::size_t num_states = store_.size();
    std::vector<RowRef> row_of(num_states);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const std::vector<Row>& rows = workers_[w].rows;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        row_of[rows[r].src] = RowRef{static_cast<std::uint32_t>(w),
                                     static_cast<std::uint32_t>(r)};
      }
    }
    const auto edges_of = [&](lts::StateId s) {
      const Worker& w = workers_[row_of[s].worker];
      const Row& row = w.rows[row_of[s].row];
      return std::span<const Edge>(w.edges.data() + row.begin, row.count);
    };
    std::vector<lts::StateId> renum(num_states, lts::kNoState);
    std::vector<lts::StateId> order;
    order.reserve(num_states);
    renum[0] = 0;
    order.push_back(0);
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (const Edge& e : edges_of(order[i])) {
        if (renum[e.dst] == lts::kNoState) {
          renum[e.dst] = static_cast<lts::StateId>(order.size());
          order.push_back(e.dst);
        }
      }
    }
    constexpr lts::ActionId kNoAction = static_cast<lts::ActionId>(-1);
    std::vector<std::vector<lts::ActionId>> action_of(workers_.size());
    lts::Lts out;
    out.add_states(order.size());
    out.set_initial_state(0);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t w = row_of[order[i]].worker;
      std::vector<lts::ActionId>& actions = action_of[w];
      for (const Edge& e : edges_of(order[i])) {
        if (e.label >= actions.size()) {
          actions.resize(e.label + 1, kNoAction);
        }
        if (actions[e.label] == kNoAction) {
          actions[e.label] =
              out.actions().intern(workers_[w].oracle->label(e.label));
        }
        out.add_transition(static_cast<lts::StateId>(i), actions[e.label],
                           renum[e.dst]);
      }
    }
    return out;
  }

  [[nodiscard]] const StateStore& store() const { return store_; }
  [[nodiscard]] const std::vector<Worker>& workers() const {
    return workers_;
  }

 private:
  /// Clones the oracle once per worker; returns the common state width.
  std::size_t prepare(const SuccessorOracle& oracle, unsigned workers) {
    std::size_t width = 0;
    for (unsigned w = 0; w < workers; ++w) {
      OraclePtr clone = oracle.clone();
      width = clone->width();
      workers_.emplace_back(std::move(clone), width);
    }
    return width;
  }

  void check_cap() const {
    if (store_.size() > options_.max_states) {
      throw LimitExceeded("explore: state space exceeds " +
                          std::to_string(options_.max_states) + " states");
    }
  }

  ExploreOptions options_;
  std::vector<Worker> workers_;
  std::size_t width_;
  StateStore store_;
};

}  // namespace

ExploreResult explore(const SuccessorOracle& oracle,
                      const ExploreOptions& options) {
  unsigned workers =
      options.workers != 0 ? options.workers : core::parallel_threads();
  if (options.order == Order::kDfs) {
    workers = 1;  // DFS is inherently sequential (one stack)
  }
  ExploreResult result;
  ExploreStats& stats = result.stats;
  const auto t0 = std::chrono::steady_clock::now();

  Search search(oracle, options, workers);
  (void)search.run(stats, /*stop_at_deadlock=*/false);
  result.lts = search.emit();

  const auto t1 = std::chrono::steady_clock::now();
  stats.seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.num_states = result.lts.num_states();
  stats.num_transitions = result.lts.num_transitions();
  stats.states_per_sec =
      stats.seconds > 0.0 ? static_cast<double>(stats.num_states) / stats.seconds
                          : 0.0;
  stats.dedup_hits = search.store().dedup_hits();
  stats.collisions = search.store().collisions();
  stats.workers.reserve(workers);
  for (const Worker& w : search.workers()) {
    stats.workers.push_back(w.stats);
  }
  return result;
}

DeadlockSearch find_deadlock(const SuccessorOracle& oracle,
                             const ExploreOptions& options) {
  ExploreOptions sequential = options;
  sequential.workers = 1;
  sequential.order = Order::kBfs;
  Search search(oracle, sequential, 1);
  ExploreStats stats;
  const std::optional<lts::StateId> dead = search.run(stats, true);
  const Worker& w = search.workers()[0];
  DeadlockSearch result;
  result.states_explored = w.rows.size();
  if (!dead) {
    return result;
  }
  result.found = true;
  // One worker discovers states in expansion order, so a state's BFS
  // parent is the first expanded row with an edge to it.
  std::vector<std::pair<lts::StateId, LabelId>> parent(
      search.store().size(), {lts::kNoState, kTau});
  for (const Row& row : w.rows) {
    for (std::size_t e = row.begin; e < row.begin + row.count; ++e) {
      const Edge& edge = w.edges[e];
      if (edge.dst != 0 && parent[edge.dst].first == lts::kNoState) {
        parent[edge.dst] = {row.src, edge.label};
      }
    }
  }
  for (lts::StateId s = *dead; s != 0; s = parent[s].first) {
    result.trace.emplace_back(w.oracle->label(parent[s].second));
  }
  std::reverse(result.trace.begin(), result.trace.end());
  return result;
}

core::Table ExploreStats::to_table(const std::string& model) const {
  core::Table t("exploration: " + model, {"metric", "value"});
  t.add_row({"states", std::to_string(num_states)});
  t.add_row({"transitions", std::to_string(num_transitions)});
  t.add_row({"time (s)", core::fmt(seconds)});
  t.add_row({"states/sec", core::fmt(states_per_sec, 0)});
  t.add_row({"peak frontier", std::to_string(peak_frontier)});
  t.add_row({"levels", std::to_string(levels)});
  t.add_row({"dedup hits", std::to_string(dedup_hits)});
  t.add_row({"fp collisions", std::to_string(collisions)});
  t.add_row({"workers", std::to_string(workers.size())});
  for (std::size_t w = 0; w < workers.size(); ++w) {
    t.add_row({"  worker " + std::to_string(w) + " expanded",
               std::to_string(workers[w].states_expanded)});
  }
  return t;
}

}  // namespace multival::explore
