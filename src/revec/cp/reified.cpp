#include "revec/cp/reified.hpp"

#include <memory>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

/// b <-> (x == y), bounds/value reasoning on x,y; full on b.
class ReifiedEqVar final : public Propagator {
public:
    ReifiedEqVar(BoolVar b, IntVar x, IntVar y) : b_(b), x_(x), y_(y) {}

    bool propagate(Store& s) override {
        // Decide b when the relation is entailed/disentailed.
        if (s.fixed(x_) && s.fixed(y_)) {
            return s.assign(b_, s.value(x_) == s.value(y_) ? 1 : 0);
        }
        if (s.max(x_) < s.min(y_) || s.max(y_) < s.min(x_)) {
            return s.assign(b_, 0);
        }
        if (!s.fixed(b_)) return true;
        if (s.value(b_) == 1) {
            // Enforce x == y (bounds + value once one side fixes).
            if (!s.set_min(x_, s.min(y_)) || !s.set_max(x_, s.max(y_))) return false;
            if (!s.set_min(y_, s.min(x_)) || !s.set_max(y_, s.max(x_))) return false;
            if (s.fixed(x_)) return s.assign(y_, s.value(x_));
            if (s.fixed(y_)) return s.assign(x_, s.value(y_));
            return true;
        }
        // b == 0: x != y.
        if (s.fixed(x_)) return s.remove(y_, s.value(x_));
        if (s.fixed(y_)) return s.remove(x_, s.value(y_));
        return true;
    }

    Priority priority() const override { return Priority::Linear; }

    const char* class_name() const override { return "ReifiedEqVar"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<ReifiedEqVar>(*this);
    }

private:
    BoolVar b_;
    IntVar x_;
    IntVar y_;
};

/// b <-> (x == c).
class ReifiedEqConst final : public Propagator {
public:
    ReifiedEqConst(BoolVar b, IntVar x, int c) : b_(b), x_(x), c_(c) {}

    bool propagate(Store& s) override {
        if (!s.dom(x_).contains(c_)) return s.assign(b_, 0);
        if (s.fixed(x_)) return s.assign(b_, 1);  // fixed and contains c => equal
        if (!s.fixed(b_)) return true;
        if (s.value(b_) == 1) return s.assign(x_, c_);
        return s.remove(x_, c_);
    }

    Priority priority() const override { return Priority::Unary; }
    // Every branch re-run on its own output is a no-op (assign/remove of
    // the same constant, entailment checks on unchanged domains).
    bool idempotent() const override { return true; }

    const char* class_name() const override { return "ReifiedEqConst"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<ReifiedEqConst>(*this);
    }

private:
    BoolVar b_;
    IntVar x_;
    int c_;
};

/// At least one literal holds. Unit propagation.
class Clause final : public Propagator {
public:
    explicit Clause(std::vector<Literal> lits) : lits_(std::move(lits)) {
        REVEC_EXPECTS(!lits_.empty());
    }

    bool propagate(Store& s) override {
        int unfixed = 0;
        const Literal* unit = nullptr;
        for (const Literal& lit : lits_) {
            if (s.fixed(lit.var)) {
                const bool holds = (s.value(lit.var) == 1) == lit.positive;
                if (holds) return true;  // clause satisfied
            } else {
                ++unfixed;
                unit = &lit;
            }
        }
        if (unfixed == 0) return false;           // all literals false
        if (unfixed == 1) {                       // unit: force the literal
            return s.assign(unit->var, unit->positive ? 1 : 0);
        }
        return true;
    }

    Priority priority() const override { return Priority::Unary; }
    // Unit propagation satisfies the clause; a rerun sees it satisfied.
    bool idempotent() const override { return true; }

    const char* class_name() const override { return "Clause"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<Clause>(*this);
    }

private:
    std::vector<Literal> lits_;
};

}  // namespace

void post_reified_eq(Store& store, BoolVar b, IntVar x, IntVar y) {
    store.post(std::make_unique<ReifiedEqVar>(b, x, y), {b, x, y});
}

void post_reified_eq_const(Store& store, BoolVar b, IntVar x, int c) {
    store.post(std::make_unique<ReifiedEqConst>(b, x, c), {b, x});
}

void post_clause(Store& store, std::vector<Literal> lits) {
    std::vector<IntVar> watched;
    watched.reserve(lits.size());
    for (const Literal& lit : lits) watched.push_back(lit.var);
    store.post(std::make_unique<Clause>(std::move(lits)), watched);
}

void post_implies(Store& store, BoolVar a, BoolVar b) {
    post_clause(store, {neg(a), pos(b)});
}

}  // namespace revec::cp
