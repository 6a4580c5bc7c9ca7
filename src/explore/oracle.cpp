#include "explore/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "lts/product.hpp"

namespace multival::explore {

namespace {

constexpr LabelId kUnmapped = static_cast<LabelId>(-1);

/// Gate-set membership of a label text, the test hide and product apply:
/// "i" and "exit" are never in a gate set.
bool gate_in(const std::unordered_set<std::string>& gates,
             std::string_view label) {
  return label != "i" && label != "exit" &&
         gates.find(std::string(lts::label_gate(label))) != gates.end();
}

// ---- LTS replay -------------------------------------------------------------

class LtsOracle final : public SuccessorOracle {
 public:
  explicit LtsOracle(const lts::Lts& l) : lts_(l) {}

  std::size_t width() override { return 1; }

  void initial(std::span<Word> out) override { out[0] = lts_.initial_state(); }

  void successors(StateView state, Steps& out) override {
    for (const lts::OutEdge& e : lts_.out(state[0])) {
      out.push(e.action)[0] = e.dst;
    }
  }

  std::string_view label(LabelId id) const override {
    return lts_.actions().name(id);
  }

  OraclePtr clone() const override { return std::make_unique<LtsOracle>(lts_); }

 private:
  const lts::Lts& lts_;
};

// ---- IMC as an LTS-level oracle ---------------------------------------------

class ImcOracle final : public SuccessorOracle {
 public:
  explicit ImcOracle(const imc::Imc& m) : imc_(m), labels_(m.actions()) {}

  std::size_t width() override { return 1; }

  void initial(std::span<Word> out) override { out[0] = imc_.initial_state(); }

  void successors(StateView state, Steps& out) override {
    const imc::StateId s = state[0];
    for (const imc::InterEdge& e : imc_.interactive(s)) {
      out.push(e.action)[0] = e.dst;
    }
    for (const imc::MarkEdge& e : imc_.markovian(s)) {
      std::ostringstream os;  // matches imc_io's rate_label
      if (!e.label.empty()) {
        os << e.label << "; ";
      }
      os << "rate " << e.rate;
      out.push(labels_.intern(os.str()))[0] = e.dst;
    }
  }

  std::string_view label(LabelId id) const override {
    return labels_.name(id);
  }

  OraclePtr clone() const override { return std::make_unique<ImcOracle>(imc_); }

 private:
  const imc::Imc& imc_;
  lts::ActionTable labels_;  // the IMC's actions, then the rate labels
};

// ---- parallel composition ---------------------------------------------------

class ProductOracle final : public SuccessorOracle {
 public:
  ProductOracle(OraclePtr a, OraclePtr b, std::vector<std::string> sync_gates)
      : a_(std::move(a)),
        b_(std::move(b)),
        gates_(std::move(sync_gates)),
        sync_(gates_.begin(), gates_.end()) {}

  std::size_t width() override {
    if (moves_a_.width() == 0) {
      moves_a_ = Steps(a_->width());
      moves_b_ = Steps(b_->width());
    }
    return moves_a_.width() + moves_b_.width();
  }

  void initial(std::span<Word> out) override {
    const std::size_t wa = width() - moves_b_.width();
    a_->initial(out.first(wa));
    b_->initial(out.subspan(wa));
  }

  void successors(StateView state, Steps& out) override {
    const std::size_t wa = width() - moves_b_.width();
    const StateView sa = state.first(wa);
    const StateView sb = state.subspan(wa);
    moves_a_.clear();
    moves_b_.clear();
    a_->successors(sa, moves_a_);
    b_->successors(sb, moves_b_);
    map_labels(*a_, moves_a_, from_a_);
    map_labels(*b_, moves_b_, from_b_);

    const auto emit = [&out, wa](LabelId label, StateView da, StateView db) {
      const std::span<Word> dst = out.push(label);
      std::copy(da.begin(), da.end(), dst.begin());
      std::copy(db.begin(), db.end(), dst.begin() + wa);
    };
    // Independent moves of a, of b, then synchronised pairs — the same
    // order as lts::parallel, so the two constructions are comparable.
    for (std::size_t i = 0; i < moves_a_.size(); ++i) {
      if (!syncs_[moves_a_.label(i)]) {
        emit(moves_a_.label(i), moves_a_.dst(i), sb);
      }
    }
    for (std::size_t j = 0; j < moves_b_.size(); ++j) {
      if (!syncs_[moves_b_.label(j)]) {
        emit(moves_b_.label(j), sa, moves_b_.dst(j));
      }
    }
    for (std::size_t i = 0; i < moves_a_.size(); ++i) {
      const LabelId l = moves_a_.label(i);
      if (!syncs_[l]) {
        continue;
      }
      for (std::size_t j = 0; j < moves_b_.size(); ++j) {
        if (moves_b_.label(j) == l) {
          emit(l, moves_a_.dst(i), moves_b_.dst(j));
        }
      }
    }
  }

  std::string_view label(LabelId id) const override {
    return labels_.name(id);
  }

  OraclePtr clone() const override {
    return std::make_unique<ProductOracle>(a_->clone(), b_->clone(), gates_);
  }

 private:
  /// Rewrites an operand's label ids into this oracle's label space,
  /// resolving each operand id's text once.
  void map_labels(const SuccessorOracle& operand, Steps& moves,
                  std::vector<LabelId>& map) {
    for (std::size_t i = 0; i < moves.size(); ++i) {
      const LabelId inner = moves.label(i);
      if (inner >= map.size()) {
        map.resize(inner + 1, kUnmapped);
      }
      if (map[inner] == kUnmapped) {
        const std::string_view text = operand.label(inner);
        map[inner] = labels_.intern(text);
        if (map[inner] >= syncs_.size()) {
          syncs_.resize(map[inner] + 1);
          syncs_[map[inner]] = text == "exit" || gate_in(sync_, text);
        }
      }
      moves.relabel(i, map[inner]);
    }
  }

  OraclePtr a_;
  OraclePtr b_;
  std::vector<std::string> gates_;
  std::unordered_set<std::string> sync_;
  lts::ActionTable labels_;      // this clone's label space
  std::vector<char> syncs_{0, 1};  // by own label id: must synchronise
  std::vector<LabelId> from_a_;  // a's label id -> own id
  std::vector<LabelId> from_b_;
  Steps moves_a_;  // scratch, reused across calls; width 0 until width()
  Steps moves_b_;
};

// ---- hiding -----------------------------------------------------------------

class HideOracle final : public SuccessorOracle {
 public:
  HideOracle(OraclePtr inner, std::vector<std::string> gates)
      : inner_(std::move(inner)),
        gates_(std::move(gates)),
        hidden_gates_(gates_.begin(), gates_.end()) {}

  std::size_t width() override { return inner_->width(); }

  void initial(std::span<Word> out) override { inner_->initial(out); }

  void successors(StateView state, Steps& out) override {
    const std::size_t first = out.size();
    inner_->successors(state, out);
    for (std::size_t i = first; i < out.size(); ++i) {
      const LabelId l = out.label(i);
      if (l >= hidden_.size()) {
        hidden_.resize(l + 1, -1);
      }
      if (hidden_[l] < 0) {
        hidden_[l] = gate_in(hidden_gates_, inner_->label(l)) ? 1 : 0;
      }
      if (hidden_[l] == 1) {
        out.relabel(i, kTau);
      }
    }
  }

  std::string_view label(LabelId id) const override {
    return inner_->label(id);
  }

  OraclePtr clone() const override {
    return std::make_unique<HideOracle>(inner_->clone(), gates_);
  }

 private:
  OraclePtr inner_;
  std::vector<std::string> gates_;
  std::unordered_set<std::string> hidden_gates_;
  std::vector<signed char> hidden_;  // by inner label id; -1 = not yet known
};

// ---- inert-tau chain contraction --------------------------------------------

/// Lexicographic order of states compared as the little-endian byte
/// strings of their words.
bool byte_less(StateView a, StateView b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(), [](Word x, Word y) {
        return __builtin_bswap32(x) < __builtin_bswap32(y);
      });
}

class TauCompressOracle final : public SuccessorOracle {
 public:
  explicit TauCompressOracle(OraclePtr inner) : inner_(std::move(inner)) {}

  std::size_t width() override {
    if (scratch_.width() == 0) {
      const std::size_t w = inner_->width();
      scratch_ = Steps(w);
      chain_ = Steps(w);
      seen_ = std::make_unique<StateStore>(w, StateStore::Options{
                                                  StoreMode::kExact, 64, 1});
    }
    return scratch_.width();
  }

  void initial(std::span<Word> out) override {
    inner_->initial(out);
    const StateView r = rep(out);
    std::copy(r.begin(), r.end(), out.begin());
  }

  void successors(StateView state, Steps& out) override {
    // @p state is always a chain endpoint (initial() and every emitted dst
    // are), so its own transitions are forwarded, only dsts are contracted.
    scratch_.clear();
    inner_->successors(state, scratch_);
    const std::size_t first = out.size();
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
      const LabelId label = scratch_.label(i);
      const StateView dst = rep(scratch_.dst(i));
      // Contraction can alias previously distinct successors; keep the
      // first occurrence (inner order is deterministic, so this is too).
      bool dup = false;
      for (std::size_t j = first; j < out.size() && !dup; ++j) {
        dup = out.label(j) == label &&
              std::equal(dst.begin(), dst.end(), out.dst(j).begin());
      }
      if (!dup) {
        const std::span<Word> d = out.push(label);
        std::copy(dst.begin(), dst.end(), d.begin());
      }
    }
  }

  std::string_view label(LabelId id) const override {
    return inner_->label(id);
  }

  OraclePtr clone() const override {
    return std::make_unique<TauCompressOracle>(inner_->clone());
  }

 private:
  /// Endpoint of the inert-tau chain starting at @p start: follows unique
  /// tau steps until a non-inert state, a memoised endpoint, or a cycle
  /// (contracted to its lexicographically smallest member, which then
  /// carries a tau self-loop).  All chain members are memoised.  The view
  /// is valid until the next call.
  StateView rep(StateView start) {
    const std::size_t w = start.size();
    cur_.assign(start.begin(), start.end());
    path_.clear();
    path_words_.clear();
    StateView target;
    while (true) {
      const lts::StateId id = seen_->insert(cur_).id;
      if (id >= known_.size()) {
        known_.resize(id + 1, 0);
        reps_.resize((id + 1) * w);
      }
      if (known_[id] == 1) {
        target = endpoint(id);
        break;
      }
      chain_.clear();
      inner_->successors(cur_, chain_);
      if (chain_.size() != 1 || chain_.label(0) != kTau) {
        target = cur_;
        break;
      }
      if (known_[id] == 2) {  // on the path: a tau cycle
        const auto pos = std::find(path_.begin(), path_.end(), id);
        std::size_t best = static_cast<std::size_t>(pos - path_.begin());
        for (std::size_t k = best + 1; k < path_.size(); ++k) {
          if (byte_less(path_state(k), path_state(best))) {
            best = k;
          }
        }
        target = path_state(best);
        break;
      }
      known_[id] = 2;
      path_.push_back(id);
      path_words_.insert(path_words_.end(), cur_.begin(), cur_.end());
      const StateView next = chain_.dst(0);
      cur_.assign(next.begin(), next.end());
    }
    target_.assign(target.begin(), target.end());
    const lts::StateId start_id = seen_->insert(start).id;
    for (const lts::StateId p : path_) {
      set_endpoint(p);
    }
    set_endpoint(start_id);
    return target_;
  }

  StateView path_state(std::size_t k) const {
    const std::size_t w = cur_.size();
    return {path_words_.data() + k * w, w};
  }
  StateView endpoint(lts::StateId id) const {
    const std::size_t w = cur_.size();
    return {reps_.data() + id * w, w};
  }
  void set_endpoint(lts::StateId id) {
    std::copy(target_.begin(), target_.end(),
              reps_.begin() + static_cast<std::ptrdiff_t>(id * target_.size()));
    known_[id] = 1;
  }

  OraclePtr inner_;
  Steps scratch_;  // width 0 until width()
  Steps chain_;
  std::unique_ptr<StateStore> seen_;  // memo key: state -> dense local id
  std::vector<char> known_;  // by local id: 0 unknown, 1 memoised, 2 on path
  std::vector<Word> reps_;   // by local id: endpoint words
  std::vector<Word> cur_, target_, path_words_;
  std::vector<lts::StateId> path_;
};

}  // namespace

OraclePtr lts_oracle(const lts::Lts& l) {
  return std::make_unique<LtsOracle>(l);
}

OraclePtr imc_oracle(const imc::Imc& m) {
  return std::make_unique<ImcOracle>(m);
}

OraclePtr product_oracle(OraclePtr a, OraclePtr b,
                         std::vector<std::string> sync_gates) {
  if (a == nullptr || b == nullptr) {
    throw std::invalid_argument("product_oracle: null operand");
  }
  return std::make_unique<ProductOracle>(std::move(a), std::move(b),
                                         std::move(sync_gates));
}

OraclePtr hide_oracle(OraclePtr inner, std::vector<std::string> gates) {
  if (inner == nullptr) {
    throw std::invalid_argument("hide_oracle: null operand");
  }
  return std::make_unique<HideOracle>(std::move(inner), std::move(gates));
}

OraclePtr tau_compress(OraclePtr inner) {
  if (inner == nullptr) {
    throw std::invalid_argument("tau_compress: null operand");
  }
  return std::make_unique<TauCompressOracle>(std::move(inner));
}

}  // namespace multival::explore
