#include "proc/generator.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

namespace multival::proc {

namespace {

using lts::Lts;
using lts::StateId;

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

/// A concrete action produced by the SOS rules, interned once per Generator
/// as a LabelId: tau and exit are fixed, every visible action is its gate
/// plus values.
using LabelId = std::uint32_t;
constexpr LabelId kTauLabel = 0;
constexpr LabelId kExitLabel = 1;

struct Label {
  std::string gate;           // visible labels only
  std::vector<Value> values;  // visible labels only
  std::string text;           // "i", "exit" or "GATE !v1 !v2"
};

struct Successor {
  LabelId label = kTauLabel;
  CfgId dst = kNoCfg;
};

// ---- canonical state encoding helpers ---------------------------------------

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t get_varint(std::string_view bytes, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos >= bytes.size() || shift > 63) {
      throw std::runtime_error("TermExplorer: malformed state (varint)");
    }
    const auto b = static_cast<std::uint8_t>(bytes[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64(std::string_view bytes, std::size_t& pos) {
  if (pos + 8 > bytes.size()) {
    throw std::runtime_error("TermExplorer: malformed state (pointer)");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[pos++]))
         << (8 * i);
  }
  return v;
}

class Generator {
 public:
  Generator(const Program& program, const GenerateOptions& options)
      : program_(program), options_(options), stop_term_(stop()) {
    labels_.push_back(Label{{}, {}, "i"});
    labels_.push_back(Label{{}, {}, "exit"});
  }

  Lts run(const TermPtr& root) {
    root_keepalive_ = root;
    Lts out;
    std::vector<lts::ActionId> action_of;  // by LabelId, interned on first use
    const CfgId init = lift(root.get(), Env{}, 0);
    const StateId s0 = state_of(init, out);
    out.set_initial_state(s0);
    while (!worklist_.empty()) {
      const CfgId cfg = worklist_.front();
      worklist_.pop_front();
      const StateId src = cfg_to_state_[cfg];
      for (const Successor& suc : transitions(cfg, 0)) {
        const StateId dst = state_of(suc.dst, out);
        if (suc.label >= action_of.size()) {
          action_of.resize(labels_.size(), kNoAction);
        }
        lts::ActionId& action = action_of[suc.label];
        if (action == kNoAction) {
          action = out.actions().intern(labels_[suc.label].text);
        }
        out.add_transition(src, action, dst);
      }
    }
    return out;
  }

  /// Breadth-first search that stops at the first deadlocked state.
  DeadlockSearchResult run_find_deadlock(const TermPtr& root) {
    root_keepalive_ = root;
    Lts out;  // states only; transitions are not materialised
    DeadlockSearchResult result;
    struct Parent {
      StateId state = lts::kNoState;
      LabelId label = kTauLabel;
    };
    std::vector<Parent> parents;

    const CfgId init = lift(root.get(), Env{}, 0);
    (void)state_of(init, out);
    out.set_initial_state(0);
    parents.emplace_back();

    while (!worklist_.empty()) {
      const CfgId cfg = worklist_.front();
      worklist_.pop_front();
      const StateId src = cfg_to_state_[cfg];
      const auto succ = transitions(cfg, 0);
      ++result.states_explored;
      if (succ.empty()) {
        result.found = true;
        // Unwind the parent chain.
        for (StateId s = src; parents[s].state != lts::kNoState;
             s = parents[s].state) {
          result.trace.push_back(labels_[parents[s].label].text);
        }
        std::reverse(result.trace.begin(), result.trace.end());
        return result;
      }
      for (const Successor& suc : succ) {
        const std::size_t before = out.num_states();
        (void)state_of(suc.dst, out);
        if (out.num_states() > before) {
          parents.push_back(Parent{src, suc.label});
        }
      }
    }
    return result;
  }

  // ---- TermExplorer support ----------------------------------------------

  CfgId lift_root(const TermPtr& root) {
    root_keepalive_ = root;
    return lift(root.get(), Env{}, 0);
  }

  std::vector<Successor> successors_of(CfgId id) { return transitions(id, 0); }

  const std::string& label_text(LabelId id) const { return labels_[id].text; }

  /// Canonical byte encoding of a configuration.  Leaf/operator terms are
  /// identified by their address in the shared term tree (stable across
  /// Generators over the same Program/root); the ubiquitous "stop" leaf is
  /// encoded structurally so that every Generator's private stop term
  /// canonicalises to the same bytes.
  std::string encode(CfgId id) const {
    std::string out;
    encode_cfg(id, out);
    return out;
  }

  CfgId decode(std::string_view bytes) {
    std::size_t pos = 0;
    const CfgId id = decode_cfg(bytes, pos);
    if (pos != bytes.size()) {
      throw std::runtime_error("TermExplorer: malformed state (trailing)");
    }
    return id;
  }

 private:
  enum : char {
    kTagLeaf = 0,
    kTagPar = 1,
    kTagSeq = 2,
    kTagHide = 3,
    kTagRename = 4,
    kTagStop = 5,
  };

  void encode_env(const Env& env, std::string& out) const {
    put_varint(out, env.size());
    for (const auto& [name, value] : env.entries()) {
      put_varint(out, name.size());
      out += name;
      put_varint(out, static_cast<std::uint32_t>(value));
    }
  }

  Env decode_env(std::string_view bytes, std::size_t& pos) const {
    Env env;
    const std::uint64_t n = get_varint(bytes, pos);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t len = get_varint(bytes, pos);
      if (pos + len > bytes.size()) {
        throw std::runtime_error("TermExplorer: malformed state (env)");
      }
      const std::string name(bytes.substr(pos, len));
      pos += len;
      env.bind(name, static_cast<Value>(
                         static_cast<std::uint32_t>(get_varint(bytes, pos))));
    }
    return env;
  }

  void encode_cfg(CfgId id, std::string& out) const {
    const Config& c = arena_[id];
    switch (c.kind) {
      case Config::Kind::kLeaf:
        if (c.term->kind() == Term::Kind::kStop) {
          out.push_back(kTagStop);
          return;
        }
        out.push_back(kTagLeaf);
        put_u64(out, reinterpret_cast<std::uintptr_t>(c.term));
        encode_env(c.env, out);
        return;
      case Config::Kind::kPar:
        out.push_back(kTagPar);
        put_u64(out, reinterpret_cast<std::uintptr_t>(c.term));
        encode_cfg(c.left, out);
        encode_cfg(c.right, out);
        return;
      case Config::Kind::kSeq:
        out.push_back(kTagSeq);
        put_u64(out, reinterpret_cast<std::uintptr_t>(c.term));
        encode_cfg(c.left, out);
        encode_env(c.env, out);
        return;
      case Config::Kind::kHide:
      case Config::Kind::kRename:
        out.push_back(c.kind == Config::Kind::kHide ? kTagHide : kTagRename);
        put_u64(out, reinterpret_cast<std::uintptr_t>(c.term));
        encode_cfg(c.left, out);
        return;
    }
    throw std::logic_error("encode_cfg: bad config kind");
  }

  CfgId decode_cfg(std::string_view bytes, std::size_t& pos) {
    if (pos >= bytes.size()) {
      throw std::runtime_error("TermExplorer: malformed state (empty)");
    }
    const char tag = bytes[pos++];
    Config c;
    switch (tag) {
      case kTagStop:
        return stopped();
      case kTagLeaf:
        c.kind = Config::Kind::kLeaf;
        c.term = reinterpret_cast<const Term*>(get_u64(bytes, pos));
        c.env = decode_env(bytes, pos);
        break;
      case kTagPar:
        c.kind = Config::Kind::kPar;
        c.term = reinterpret_cast<const Term*>(get_u64(bytes, pos));
        c.left = decode_cfg(bytes, pos);
        c.right = decode_cfg(bytes, pos);
        break;
      case kTagSeq:
        c.kind = Config::Kind::kSeq;
        c.term = reinterpret_cast<const Term*>(get_u64(bytes, pos));
        c.left = decode_cfg(bytes, pos);
        c.env = decode_env(bytes, pos);
        break;
      case kTagHide:
      case kTagRename:
        c.kind = tag == kTagHide ? Config::Kind::kHide : Config::Kind::kRename;
        c.term = reinterpret_cast<const Term*>(get_u64(bytes, pos));
        c.left = decode_cfg(bytes, pos);
        break;
      default:
        throw std::runtime_error("TermExplorer: malformed state (tag)");
    }
    return intern(std::move(c));
  }

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

  const Config& cfg(CfgId id) const { return arena_[id]; }

  CfgId stopped() {
    Config c;
    c.kind = Config::Kind::kLeaf;
    c.term = stop_term_.get();
    return intern(std::move(c));
  }

  // ---- label interning ---------------------------------------------------

  LabelId intern_label(const std::string& gate,
                       const std::vector<Value>& values) {
    std::string key;  // length-prefixed gate, then the raw values
    put_varint(key, gate.size());
    key += gate;
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

  /// True if @p label takes part in a synchronisation on @p gates: exit
  /// always does, tau never, a visible action when its gate is listed.
  bool syncs_on(LabelId label, const std::vector<std::string>& gates) const {
    if (label == kExitLabel) {
      return true;
    }
    return label != kTauLabel && std::find(gates.begin(), gates.end(),
                                           labels_[label].gate) != gates.end();
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

  /// A memoised successor list: pool_[begin, begin + count), computed
  /// with an unfolding that reached `span` levels below its start.
  static constexpr std::uint32_t kNotComputed = static_cast<std::uint32_t>(-1);
  struct Memo {
    std::size_t begin = 0;
    std::uint32_t count = 0;
    std::uint32_t span = kNotComputed;
  };

  /// Successors of a parallel operand.  Configurations are immutable and
  /// hash-consed, so the list is a pure function of the id: it is computed
  /// once and stored, and only once it is complete, so an exception leaves
  /// no entry behind.  Reusing an entry at @p depth checks depth + span
  /// against the bound, which trips it exactly where recomputing would.
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
      const bool hidden =
          m.label != kExitLabel && syncs_on(m.label, c.term->gates());
      out.push_back({hidden ? kTauLabel : m.label, intern(std::move(h))});
    }
    return out;
  }

  std::vector<Successor> rename_transitions(const Config& c,
                                            std::size_t depth) {
    std::vector<Successor> out;
    for (Successor m : transitions(c.left, depth + 1)) {
      if (m.label != kTauLabel && m.label != kExitLabel) {
        const Label& l = labels_[m.label];
        const auto it = c.term->gate_map().find(l.gate);
        if (it != c.term->gate_map().end()) {
          m.label = intern_label(it->second, l.values);
        }
      }
      Config r;
      r.kind = Config::Kind::kRename;
      r.term = c.term;
      r.left = m.dst;
      out.push_back({m.label, intern(std::move(r))});
    }
    return out;
  }

  // ---- state management --------------------------------------------------

  StateId state_of(CfgId cfg, Lts& out) {
    if (cfg >= cfg_to_state_.size()) {
      cfg_to_state_.resize(arena_.size(), lts::kNoState);
    }
    if (cfg_to_state_[cfg] != lts::kNoState) {
      return cfg_to_state_[cfg];
    }
    if (out.num_states() >= options_.max_states) {
      throw StateSpaceLimit("generate: state space exceeds " +
                            std::to_string(options_.max_states) + " states");
    }
    const StateId s = out.add_state();
    cfg_to_state_[cfg] = s;
    worklist_.push_back(cfg);
    return s;
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

  static constexpr lts::ActionId kNoAction = static_cast<lts::ActionId>(-1);

  const Program& program_;
  GenerateOptions options_;
  TermPtr root_keepalive_;
  TermPtr stop_term_;  // keeps the private stop leaf alive for interning
  std::deque<Config> arena_;
  std::vector<Slot> slots_;  // open-addressing index over arena_
  std::deque<Label> labels_;  // by LabelId; a deque keeps references stable
  std::unordered_map<std::string, LabelId> label_ids_;
  std::vector<Memo> memo_;       // by CfgId, for parallel operands
  std::vector<Successor> pool_;  // memoised successor lists
  std::size_t deepest_ = 0;
  std::vector<StateId> cfg_to_state_;  // by CfgId; kNoState if unvisited
  std::deque<CfgId> worklist_;
};

}  // namespace

Lts generate(const Program& program, std::string_view entry,
             std::vector<Value> args, const GenerateOptions& options) {
  std::vector<ExprPtr> arg_exprs;
  arg_exprs.reserve(args.size());
  for (const Value v : args) {
    arg_exprs.push_back(lit(v));
  }
  return generate_term(program, call(entry, std::move(arg_exprs)), options);
}

Lts generate_term(const Program& program, const TermPtr& t,
                  const GenerateOptions& options) {
  if (t == nullptr) {
    throw std::invalid_argument("generate_term: null term");
  }
  Generator gen(program, options);
  return gen.run(t);
}

DeadlockSearchResult find_deadlock(const Program& program,
                                   std::string_view entry,
                                   std::vector<Value> args,
                                   const GenerateOptions& options) {
  std::vector<ExprPtr> arg_exprs;
  arg_exprs.reserve(args.size());
  for (const Value v : args) {
    arg_exprs.push_back(lit(v));
  }
  Generator gen(program, options);
  return gen.run_find_deadlock(call(entry, std::move(arg_exprs)));
}

// ---- TermExplorer -----------------------------------------------------------

struct TermExplorer::Impl {
  Impl(const Program& program, TermPtr root, const GenerateOptions& options)
      : gen(program, options), root(std::move(root)) {}

  Generator gen;
  TermPtr root;
};

TermExplorer::TermExplorer(const Program& program, TermPtr root,
                           const GenerateOptions& options) {
  if (root == nullptr) {
    throw std::invalid_argument("TermExplorer: null root");
  }
  impl_ = std::make_unique<Impl>(program, std::move(root), options);
}

TermExplorer::TermExplorer(TermExplorer&&) noexcept = default;
TermExplorer& TermExplorer::operator=(TermExplorer&&) noexcept = default;
TermExplorer::~TermExplorer() = default;

std::string TermExplorer::initial() {
  return impl_->gen.encode(impl_->gen.lift_root(impl_->root));
}

std::vector<TermExplorer::Move> TermExplorer::successors(
    std::string_view state) {
  const CfgId id = impl_->gen.decode(state);
  std::vector<Move> out;
  for (const Successor& suc : impl_->gen.successors_of(id)) {
    out.push_back(Move{impl_->gen.label_text(suc.label),
                       impl_->gen.encode(suc.dst)});
  }
  return out;
}

}  // namespace multival::proc
