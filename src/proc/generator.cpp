#include "proc/generator.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/sync.hpp"

namespace multival::proc {

namespace {

using lts::Lts;
using explore::LabelId;
using explore::StateView;
using explore::Steps;
using explore::Word;

using CfgId = std::uint32_t;
constexpr CfgId kNoCfg = static_cast<CfgId>(-1);

/// A runtime configuration node.  Hash-consed: structurally equal
/// configurations share one id, which makes state identification O(1).
struct Config {
  enum class Kind { kLeaf, kPar, kSeq, kHide, kRename };

  Kind kind = Kind::kLeaf;
  const Term* term = nullptr;  // leaf term, or the par/seq/hide/rename node
  CfgId left = kNoCfg;         // par left / seq current / hide-rename inner
  CfgId right = kNoCfg;        // par right
  Env env;                     // leaf environment / seq continuation env

  friend bool operator==(const Config&, const Config&) = default;
};

std::uint64_t config_hash(const Config& c) {
  std::uint64_t h = static_cast<std::uint64_t>(c.kind) * 0x9e3779b97f4a7c15ull;
  h ^= reinterpret_cast<std::uintptr_t>(c.term);
  h *= 1099511628211ull;
  h ^= c.left;
  h *= 1099511628211ull;
  h ^= c.right;
  h *= 1099511628211ull;
  h ^= c.env.hash();
  return h;
}

/// A concrete action produced by the SOS rules, interned once per leaf
/// table as a LabelId: tau and exit are fixed (the explore label-space
/// convention), every visible action is its gate plus values.
constexpr LabelId kTauLabel = explore::kTau;
constexpr LabelId kExitLabel = explore::kExit;

struct Label {
  std::string gate;           // visible labels only
  std::vector<Value> values;  // visible labels only
  std::string text;           // "i", "exit" or "GATE !v1 !v2"
};

struct Successor {
  LabelId label = kTauLabel;
  CfgId dst = kNoCfg;
};

/// The SOS rules over hash-consed configurations, with the successor memo
/// and the label table.  Single-threaded: LeafTable serialises it.
class Rules {
 public:
  Rules(const Program& program, const GenerateOptions& options)
      : program_(program), options_(options), stop_term_(stop()) {
    labels_.push_back(Label{{}, {}, "i"});
    labels_.push_back(Label{{}, {}, "exit"});
  }

  /// The initial configuration of closed term @p root.
  CfgId lift_root(const Term* root) { return lift(root, Env{}, 0); }

  const Config& cfg(CfgId id) const { return arena_[id]; }

  const Label& label(LabelId id) const { return labels_[id]; }

  /// A memoised successor list: pool_[begin, begin + count), computed
  /// with an unfolding that reached `span` levels below its start.
  static constexpr std::uint32_t kNotComputed = static_cast<std::uint32_t>(-1);
  struct Memo {
    std::size_t begin = 0;
    std::uint32_t count = 0;
    std::uint32_t span = kNotComputed;
  };

  /// Successors of configuration @p id reached at unfolding depth @p depth.
  /// Configurations are immutable and hash-consed, so the list is a pure
  /// function of the id: it is computed once and stored, and only once it
  /// is complete, so an exception leaves no entry behind.  Reusing an entry
  /// at @p depth checks depth + span against the bound, which trips it
  /// exactly where recomputing would.
  Memo operand_transitions(CfgId id, std::size_t depth) {
    if (id < memo_.size() && memo_[id].span != kNotComputed) {
      bump(depth + memo_[id].span);
      return memo_[id];
    }
    const std::size_t outer_deepest = deepest_;
    deepest_ = depth;
    const std::vector<Successor> moves = transitions(id, depth);
    Memo m{pool_.size(), static_cast<std::uint32_t>(moves.size()),
           static_cast<std::uint32_t>(deepest_ - depth)};
    deepest_ = std::max(outer_deepest, deepest_);
    pool_.insert(pool_.end(), moves.begin(), moves.end());
    if (id >= memo_.size()) {
      memo_.resize(arena_.size());
    }
    memo_[id] = m;
    return m;
  }

  std::span<const Successor> memo_list(const Memo& m) const {
    return {pool_.data() + m.begin, m.count};
  }

  /// True if @p label takes part in a synchronisation on @p gates: exit
  /// always does, tau never, a visible action when its gate is listed.
  bool syncs_on(LabelId label, const std::vector<std::string>& gates) const {
    if (label == kExitLabel) {
      return true;
    }
    return label != kTauLabel && std::find(gates.begin(), gates.end(),
                                           labels_[label].gate) != gates.end();
  }

  /// @p label after hiding by kHide term @p t.
  LabelId hidden(LabelId label, const Term& t) const {
    return label != kExitLabel && syncs_on(label, t.gates()) ? kTauLabel
                                                             : label;
  }

  /// @p label after renaming by kRename term @p t.
  LabelId renamed(LabelId label, const Term& t) {
    if (label == kTauLabel || label == kExitLabel) {
      return label;
    }
    const auto it = t.gate_map().find(labels_[label].gate);
    if (it == t.gate_map().end()) {
      return label;
    }
    // Copied: interning may grow labels_ (a deque, so the element stays,
    // but the copy keeps this independent of that).
    const std::vector<Value> values = labels_[label].values;
    return intern_label(it->second, values);
  }

 private:
  // ---- configuration interning -------------------------------------------

  /// Returns the id of @p c, adding it to the arena if it is new.  The
  /// arena holds the only copy of each configuration; slots_ indexes it by
  /// open addressing, and each slot caches (32 bits of) its configuration's
  /// hash so that probes and growth compare and move hashes, not Envs.
  CfgId intern(Config c) {
    if (2 * (arena_.size() + 1) > slots_.size()) {
      grow_slots();
    }
    const auto h = static_cast<std::uint32_t>(config_hash(c));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == kNoCfg) {
        slot = Slot{h, static_cast<CfgId>(arena_.size())};
        arena_.push_back(std::move(c));
        return slot.id;
      }
      if (slot.hash == h && arena_[slot.id] == c) {
        return slot.id;
      }
    }
  }

  void grow_slots() {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNoCfg) {
        continue;
      }
      std::size_t i = slot.hash & mask;
      while (slots_[i].id != kNoCfg) {
        i = (i + 1) & mask;
      }
      slots_[i] = slot;
    }
  }

  CfgId stopped() {
    Config c;
    c.kind = Config::Kind::kLeaf;
    c.term = stop_term_.get();
    return intern(std::move(c));
  }

  // ---- label interning ---------------------------------------------------

  LabelId intern_label(const std::string& gate,
                       const std::vector<Value>& values) {
    std::string key = gate;  // the gate, a NUL, then the raw values
    key.push_back('\0');
    key.append(reinterpret_cast<const char*>(values.data()),
               values.size() * sizeof(Value));
    const auto [it, inserted] =
        label_ids_.try_emplace(std::move(key), labels_.size());
    if (inserted) {
      std::string text = gate;
      for (const Value v : values) {
        text += " !";
        text += std::to_string(v);
      }
      labels_.push_back(Label{gate, values, std::move(text)});
    }
    return it->second;
  }

  // ---- lifting: term + env -> configuration --------------------------------

  /// Normalises structural operators into configuration nodes, resolves
  /// guards, and unfolds process calls.  @p depth guards against unguarded
  /// recursion.
  CfgId lift(const Term* t, const Env& env, std::size_t depth) {
    bump(depth);
    switch (t->kind()) {
      case Term::Kind::kPar: {
        Config c;
        c.kind = Config::Kind::kPar;
        c.term = t;
        c.left = lift(t->children()[0].get(), env, depth + 1);
        c.right = lift(t->children()[1].get(), env, depth + 1);
        return intern(std::move(c));
      }
      case Term::Kind::kHide:
      case Term::Kind::kRename: {
        Config c;
        c.kind = t->kind() == Term::Kind::kHide ? Config::Kind::kHide
                                                : Config::Kind::kRename;
        c.term = t;
        c.left = lift(t->children()[0].get(), env, depth + 1);
        return intern(std::move(c));
      }
      case Term::Kind::kSeq: {
        Config c;
        c.kind = Config::Kind::kSeq;
        c.term = t;
        c.left = lift(t->children()[0].get(), env, depth + 1);
        c.env = env.restricted_to(t->children()[1]->free_vars());
        return intern(std::move(c));
      }
      case Term::Kind::kGuard: {
        if (t->condition()->eval(env) != 0) {
          return lift(t->children()[0].get(), env, depth + 1);
        }
        return stopped();
      }
      case Term::Kind::kCall: {
        const Program::Definition& def = program_.definition(t->callee());
        if (def.params.size() != t->args().size()) {
          throw std::invalid_argument(
              "call of " + t->callee() + ": expected " +
              std::to_string(def.params.size()) + " argument(s), got " +
              std::to_string(t->args().size()));
        }
        Env inner;
        for (std::size_t i = 0; i < def.params.size(); ++i) {
          inner.bind(def.params[i], t->args()[i]->eval(env));
        }
        return lift(def.body.get(), inner, depth + 1);
      }
      case Term::Kind::kStop:
      case Term::Kind::kExit:
      case Term::Kind::kPrefix:
      case Term::Kind::kChoice: {
        Config c;
        c.kind = Config::Kind::kLeaf;
        c.term = t;
        c.env = env.restricted_to(t->free_vars());
        return intern(std::move(c));
      }
    }
    throw std::logic_error("lift: bad term kind");
  }

  // ---- SOS transition rules -------------------------------------------------

  /// arena_ is a deque, so the Config references taken here stay valid
  /// while the rules below intern new configurations.
  std::vector<Successor> transitions(CfgId id, std::size_t depth) {
    bump(depth);
    const Config& c = cfg(id);
    switch (c.kind) {
      case Config::Kind::kLeaf:
        return leaf_transitions(c, depth);
      case Config::Kind::kPar:
        return par_transitions(c, depth);
      case Config::Kind::kSeq:
        return seq_transitions(c, depth);
      case Config::Kind::kHide:
        return hide_transitions(c, depth);
      case Config::Kind::kRename:
        return rename_transitions(c, depth);
    }
    throw std::logic_error("transitions: bad config kind");
  }

  std::vector<Successor> leaf_transitions(const Config& c, std::size_t depth) {
    const Term& t = *c.term;
    switch (t.kind()) {
      case Term::Kind::kStop:
        return {};
      case Term::Kind::kExit:
        return {{kExitLabel, stopped()}};
      case Term::Kind::kPrefix: {
        std::vector<Successor> out;
        std::vector<Value> values;
        enumerate_offers(t, 0, c.env, values, out, depth);
        return out;
      }
      case Term::Kind::kChoice: {
        std::vector<Successor> out;
        for (const TermPtr& branch : t.children()) {
          const CfgId b = lift(branch.get(), c.env, depth + 1);
          const auto moves = transitions(b, depth + 1);
          out.insert(out.end(), moves.begin(), moves.end());
        }
        return out;
      }
      default:
        throw std::logic_error("leaf_transitions: non-leaf term");
    }
  }

  /// Left-to-right enumeration of value offers: emits evaluate under the
  /// environment extended by earlier accepts; accepts enumerate their range.
  void enumerate_offers(const Term& t, std::size_t index, const Env& env,
                        std::vector<Value>& values,
                        std::vector<Successor>& out, std::size_t depth) {
    if (index == t.offers().size()) {
      const LabelId label = intern_label(t.gate(), values);
      out.push_back({label, lift(t.children()[0].get(), env, depth + 1)});
      return;
    }
    const Offer& o = t.offers()[index];
    if (o.kind == Offer::Kind::kEmit) {
      values.push_back(o.expr->eval(env));
      enumerate_offers(t, index + 1, env, values, out, depth);
      values.pop_back();
    } else {
      // Counted in 64 bits so that a range ending at the largest Value
      // terminates.
      for (std::int64_t v = o.lo; v <= o.hi; ++v) {
        Env extended = env;
        extended.bind(o.var, static_cast<Value>(v));
        values.push_back(static_cast<Value>(v));
        enumerate_offers(t, index + 1, extended, values, out, depth);
        values.pop_back();
      }
    }
  }

  std::vector<Successor> par_transitions(const Config& c, std::size_t depth) {
    const std::vector<std::string>& sync = c.term->gates();
    const Memo lm = operand_transitions(c.left, depth + 1);
    const Memo rm = operand_transitions(c.right, depth + 1);
    // Both lists are complete and nothing below appends to pool_, so these
    // views stay valid until the function returns.
    const std::span<const Successor> left_moves(pool_.data() + lm.begin,
                                                lm.count);
    const std::span<const Successor> right_moves(pool_.data() + rm.begin,
                                                 rm.count);
    std::vector<Successor> out;

    const auto make_par = [&](CfgId l, CfgId r) {
      Config p;
      p.kind = Config::Kind::kPar;
      p.term = c.term;
      p.left = l;
      p.right = r;
      return intern(std::move(p));
    };

    for (const Successor& l : left_moves) {
      if (!syncs_on(l.label, sync)) {
        out.push_back({l.label, make_par(l.dst, c.right)});
      }
    }
    for (const Successor& r : right_moves) {
      if (!syncs_on(r.label, sync)) {
        out.push_back({r.label, make_par(c.left, r.dst)});
      }
    }
    for (const Successor& l : left_moves) {
      if (!syncs_on(l.label, sync)) {
        continue;
      }
      for (const Successor& r : right_moves) {
        if (r.label == l.label) {
          out.push_back({l.label, make_par(l.dst, r.dst)});
        }
      }
    }
    return out;
  }

  std::vector<Successor> seq_transitions(const Config& c, std::size_t depth) {
    std::vector<Successor> out;
    for (const Successor& m : transitions(c.left, depth + 1)) {
      if (m.label == kExitLabel) {
        out.push_back(
            {kTauLabel, lift(c.term->children()[1].get(), c.env, depth + 1)});
      } else {
        Config s;
        s.kind = Config::Kind::kSeq;
        s.term = c.term;
        s.left = m.dst;
        s.env = c.env;
        out.push_back({m.label, intern(std::move(s))});
      }
    }
    return out;
  }

  std::vector<Successor> hide_transitions(const Config& c, std::size_t depth) {
    std::vector<Successor> out;
    for (const Successor& m : transitions(c.left, depth + 1)) {
      Config h;
      h.kind = Config::Kind::kHide;
      h.term = c.term;
      h.left = m.dst;
      out.push_back({hidden(m.label, *c.term), intern(std::move(h))});
    }
    return out;
  }

  std::vector<Successor> rename_transitions(const Config& c,
                                            std::size_t depth) {
    std::vector<Successor> out;
    for (Successor m : transitions(c.left, depth + 1)) {
      m.label = renamed(m.label, *c.term);
      Config r;
      r.kind = Config::Kind::kRename;
      r.term = c.term;
      r.left = m.dst;
      out.push_back({m.label, intern(std::move(r))});
    }
    return out;
  }

  /// Enforces the unfolding bound and records the deepest level reached,
  /// which operand_transitions turns into a memo entry's span.
  void bump(std::size_t depth) {
    if (depth > options_.max_unfold_depth) {
      throw UnguardedRecursion(
          "generate: unfolding depth exceeded (unguarded recursion?)");
    }
    deepest_ = std::max(deepest_, depth);
  }

  struct Slot {
    std::uint32_t hash = 0;
    CfgId id = kNoCfg;
  };

  const Program& program_;
  GenerateOptions options_;
  TermPtr stop_term_;  // keeps the private stop leaf alive for interning
  std::deque<Config> arena_;
  std::vector<Slot> slots_;  // open-addressing index over arena_
  std::deque<Label> labels_;  // by LabelId; a deque keeps references stable
  std::unordered_map<std::string, LabelId> label_ids_;
  std::vector<Memo> memo_;       // by CfgId, for parallel operands
  std::vector<Successor> pool_;  // memoised successor lists
  std::size_t deepest_ = 0;
};

/// A node of the root configuration's static skeleton.  Nodes are stored
/// in preorder; a skeleton leaf (kind kLeaf, whatever its configuration's
/// kind) owns word `first` of every global state, and an inner node the
/// words [first, first + width) of its leaves.
struct SkeletonNode {
  Config::Kind kind = Config::Kind::kLeaf;  // kPar, kHide, kRename or kLeaf
  const Term* term = nullptr;
  std::size_t depth = 0;  // unfolding depth at which its rule runs
  std::uint32_t first = 0;
  std::uint32_t width = 1;
  std::uint32_t left = 0;   // par, hide, rename: first operand
  std::uint32_t right = 0;  // par: second operand
};

struct Skeleton {
  std::vector<SkeletonNode> nodes;  // nodes[0] is the root
  std::vector<Word> initial;        // the initial configuration id per leaf
};

/// Splits configuration @p id (reached at @p depth) into skeleton nodes;
/// returns the index of its node.
std::uint32_t build_skeleton(const Rules& rules, CfgId id, std::size_t depth,
                             Skeleton& sk) {
  const Config& c = rules.cfg(id);
  const auto index = static_cast<std::uint32_t>(sk.nodes.size());
  sk.nodes.emplace_back();
  SkeletonNode node;
  node.kind = c.kind;
  node.term = c.term;
  node.depth = depth;
  node.first = static_cast<std::uint32_t>(sk.initial.size());
  switch (c.kind) {
    case Config::Kind::kPar:
      node.left = build_skeleton(rules, c.left, depth + 1, sk);
      node.right = build_skeleton(rules, c.right, depth + 1, sk);
      break;
    case Config::Kind::kHide:
    case Config::Kind::kRename:
      node.left = build_skeleton(rules, c.left, depth + 1, sk);
      break;
    case Config::Kind::kLeaf:
    case Config::Kind::kSeq:
      node.kind = Config::Kind::kLeaf;
      sk.initial.push_back(id);
      break;
  }
  node.width = static_cast<std::uint32_t>(sk.initial.size()) - node.first;
  sk.nodes[index] = node;
  return index;
}

/// The leaf table shared by every clone of one oracle: Rules behind one
/// mutex, plus the skeleton, built once.  Workers call in only on a miss
/// of their own caches.
class LeafTable {
 public:
  LeafTable(std::shared_ptr<const Program> program, TermPtr root,
            const GenerateOptions& options)
      : program_(std::move(program)),
        root_(std::move(root)),
        rules_(*program_, options) {}

  /// The skeleton, lifting the root on first use (a failed lift is
  /// retried, and fails again, on the next call).
  const Skeleton& skeleton() {
    core::MutexLock lock(mu_);
    if (skeleton_ == nullptr) {
      auto sk = std::make_unique<Skeleton>();
      build_skeleton(rules_, rules_.lift_root(root_.get()), 0, *sk);
      skeleton_ = std::move(sk);
    }
    return *skeleton_;
  }

  /// Appends the successors of leaf configuration @p id at @p depth to
  /// @p out.
  void successors(CfgId id, std::size_t depth, std::vector<Successor>& out) {
    core::MutexLock lock(mu_);
    const std::span<const Successor> list =
        rules_.memo_list(rules_.operand_transitions(id, depth));
    out.insert(out.end(), list.begin(), list.end());
  }

  /// @p label as seen above skeleton node @p node: for a par, 1 if it
  /// synchronises and 0 if not; for hide and rename, the resulting label.
  LabelId classify(const SkeletonNode& node, LabelId label) {
    core::MutexLock lock(mu_);
    switch (node.kind) {
      case Config::Kind::kPar:
        return rules_.syncs_on(label, node.term->gates()) ? 1 : 0;
      case Config::Kind::kHide:
        return rules_.hidden(label, *node.term);
      case Config::Kind::kRename:
        return rules_.renamed(label, *node.term);
      default:
        throw std::logic_error("LeafTable::classify: not an operator node");
    }
  }

  /// The text of @p label; labels are never moved, so the view stays valid.
  std::string_view text(LabelId label) {
    core::MutexLock lock(mu_);
    return rules_.label(label).text;
  }

 private:
  std::shared_ptr<const Program> program_;
  TermPtr root_;
  core::Mutex mu_;
  Rules rules_ MV_GUARDED_BY(mu_);
  std::unique_ptr<const Skeleton> skeleton_ MV_GUARDED_BY(mu_);
};

/// One worker's view of a LeafTable.  The skeleton's moves are combined
/// here, on state vectors.  Every par operand's moves are memoised per
/// worker by the operand's words — they depend on nothing else, since an
/// operand's depth is fixed — so the table is locked only on a miss of
/// that memo or of the per-node label classification.
class ProcOracle final : public explore::SuccessorOracle {
 public:
  explicit ProcOracle(std::shared_ptr<LeafTable> table)
      : table_(std::move(table)) {}

  std::size_t width() override { return skeleton().initial.size(); }

  void initial(std::span<Word> out) override {
    const std::vector<Word>& init = skeleton().initial;
    std::copy(init.begin(), init.end(), out.begin());
  }

  void successors(StateView state, Steps& out) override {
    moves(0, state, out);
  }

  std::string_view label(LabelId id) const override {
    return table_->text(id);
  }

  explore::OraclePtr clone() const override {
    return std::make_unique<ProcOracle>(table_);
  }

 private:
  static constexpr LabelId kUnknown = static_cast<LabelId>(-1);

  static constexpr std::size_t kNotComputed = static_cast<std::size_t>(-1);

  /// The memoised moves of one par operand: entry e (a dense id of the
  /// operand's words) owns pool[lists[e].first, lists[e].second).
  struct OperandMemo {
    std::unique_ptr<explore::StateStore> keys;
    std::vector<std::pair<std::size_t, std::size_t>> lists;
    Steps pool;
  };

  const Skeleton& skeleton() {
    if (skeleton_ == nullptr) {
      skeleton_ = &table_->skeleton();
      const std::size_t n = skeleton_->nodes.size();
      classified_.resize(n);
      memo_.resize(n);
      for (const SkeletonNode& node : skeleton_->nodes) {
        scratch_.emplace_back(node.width);
      }
    }
    return *skeleton_;
  }

  /// Appends the moves of skeleton node @p n in global state @p s to
  /// @p out, whose width is the node's: the SOS rules of par, hide and
  /// rename, in the order the rules give them.
  void moves(std::uint32_t n, StateView s, Steps& out) {
    const SkeletonNode& node = skeleton().nodes[n];
    switch (node.kind) {
      case Config::Kind::kPar: {
        const Steps& l = operand_moves(node.left, s);
        const Steps& r = operand_moves(node.right, s);
        const StateView cur = s.subspan(node.first, node.width);
        const std::size_t wl = l.width();
        const auto emit = [&out, wl](LabelId label, StateView dl,
                                     StateView dr) {
          const std::span<Word> dst = out.push(label);
          std::copy(dl.begin(), dl.end(), dst.begin());
          std::copy(dr.begin(), dr.end(), dst.begin() + wl);
        };
        for (std::size_t i = 0; i < l.size(); ++i) {
          if (classify(n, l.label(i)) == 0) {
            emit(l.label(i), l.dst(i), cur.subspan(wl));
          }
        }
        for (std::size_t j = 0; j < r.size(); ++j) {
          if (classify(n, r.label(j)) == 0) {
            emit(r.label(j), cur.first(wl), r.dst(j));
          }
        }
        for (std::size_t i = 0; i < l.size(); ++i) {
          if (classify(n, l.label(i)) == 0) {
            continue;
          }
          for (std::size_t j = 0; j < r.size(); ++j) {
            if (r.label(j) == l.label(i)) {
              emit(l.label(i), l.dst(i), r.dst(j));
            }
          }
        }
        return;
      }
      case Config::Kind::kHide:
      case Config::Kind::kRename: {
        const std::size_t first = out.size();
        moves(node.left, s, out);
        for (std::size_t i = first; i < out.size(); ++i) {
          out.relabel(i, classify(n, out.label(i)));
        }
        return;
      }
      default:
        leaf_.clear();
        table_->successors(s[node.first], node.depth, leaf_);
        for (const Successor& m : leaf_) {
          out.push(m.label)[0] = m.dst;
        }
        return;
    }
  }

  /// The moves of par operand @p n in @p s, in scratch_[n].  A computation
  /// that throws records nothing.
  const Steps& operand_moves(std::uint32_t n, StateView s) {
    const SkeletonNode& node = skeleton_->nodes[n];
    OperandMemo& memo = memo_[n];
    if (memo.keys == nullptr) {
      memo.keys = std::make_unique<explore::StateStore>(
          node.width, explore::StateStore::Options{
                          explore::StoreMode::kExact, 64, 1});
      memo.pool = Steps(node.width);
    }
    Steps& out = scratch_[n];
    out.clear();
    const StateView key = s.subspan(node.first, node.width);
    const lts::StateId e = memo.keys->insert(key).id;
    if (e >= memo.lists.size()) {
      memo.lists.resize(e + 1, {kNotComputed, kNotComputed});
    }
    if (memo.lists[e].first != kNotComputed) {
      for (std::size_t i = memo.lists[e].first; i < memo.lists[e].second;
           ++i) {
        const StateView d = memo.pool.dst(i);
        std::copy(d.begin(), d.end(), out.push(memo.pool.label(i)).begin());
      }
      return out;
    }
    moves(n, s, out);
    const std::size_t first = memo.pool.size();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const StateView d = out.dst(i);
      std::copy(d.begin(), d.end(), memo.pool.push(out.label(i)).begin());
    }
    memo.lists[e] = {first, memo.pool.size()};
    return out;
  }

  LabelId classify(std::uint32_t n, LabelId label) {
    std::vector<LabelId>& known = classified_[n];
    if (label >= known.size()) {
      known.resize(label + 1, kUnknown);
    }
    if (known[label] == kUnknown) {
      known[label] = table_->classify(skeleton_->nodes[n], label);
    }
    return known[label];
  }

  std::shared_ptr<LeafTable> table_;
  const Skeleton* skeleton_ = nullptr;  // owned by table_
  std::vector<std::vector<LabelId>> classified_;  // by node, by label
  std::vector<OperandMemo> memo_;                 // by node
  std::vector<Steps> scratch_;  // by node: its moves, for a par above it
  std::vector<Successor> leaf_;  // scratch
};

std::vector<ExprPtr> literals(const std::vector<Value>& args) {
  std::vector<ExprPtr> out;
  out.reserve(args.size());
  for (const Value v : args) {
    out.push_back(lit(v));
  }
  return out;
}

/// The engine's options for generating with @p options: one worker, an
/// exact store.
explore::ExploreOptions sequential(const GenerateOptions& options) {
  explore::ExploreOptions eo;
  eo.max_states = options.max_states;
  return eo;
}

/// @p program viewed through a shared_ptr that does not own it.
std::shared_ptr<const Program> borrowed(const Program& program) {
  return {std::shared_ptr<const Program>(), &program};
}

}  // namespace

explore::OraclePtr oracle(std::shared_ptr<const Program> program, TermPtr root,
                          const GenerateOptions& options) {
  if (program == nullptr || root == nullptr) {
    throw std::invalid_argument("proc::oracle: null program or root");
  }
  return std::make_unique<ProcOracle>(std::make_shared<LeafTable>(
      std::move(program), std::move(root), options));
}

Lts generate(const Program& program, std::string_view entry,
             std::vector<Value> args, const GenerateOptions& options) {
  return generate_term(program, call(entry, literals(args)), options);
}

Lts generate_term(const Program& program, const TermPtr& t,
                  const GenerateOptions& options) {
  if (t == nullptr) {
    throw std::invalid_argument("generate_term: null term");
  }
  return explore::explore(*oracle(borrowed(program), t, options),
                          sequential(options))
      .lts;
}

DeadlockSearchResult find_deadlock(const Program& program,
                                   std::string_view entry,
                                   std::vector<Value> args,
                                   const GenerateOptions& options) {
  return explore::find_deadlock(
      *oracle(borrowed(program), call(entry, literals(args)), options),
      sequential(options));
}

}  // namespace multival::proc
