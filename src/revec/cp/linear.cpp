#include "revec/cp/linear.hpp"

#include <array>
#include <type_traits>

#include "revec/support/assert.hpp"

namespace revec::cp {

namespace {

/// Floor division for possibly-negative numerators.
std::int64_t div_floor(std::int64_t a, std::int64_t b) {
    REVEC_EXPECTS(b > 0);
    const std::int64_t q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

/// Smallest value of sign * t.coeff * t.var under the current bounds.
std::int64_t term_min(const Store& s, const LinTerm& t, int sign) {
    const std::int64_t a = sign * t.coeff;
    return a >= 0 ? a * s.min(t.var) : a * s.max(t.var);
}

/// One bounds pass for sign * sum(terms) <= sign * c: sign +1 prunes for
/// sum <= c, sign -1 for sum >= c. Shared by Leq and Eq in every arity.
/// A pass moves only the bounds the opposite direction reads (max of
/// positive terms, min of negative ones), so with distinct variables a
/// second pass in the same direction prunes nothing.
template <typename Terms>
bool prune_leq(Store& s, const Terms& terms, std::int64_t c, int sign) {
    std::int64_t total_min = 0;
    for (const LinTerm& t : terms) total_min += term_min(s, t, sign);
    if (total_min > sign * c) return false;
    for (const LinTerm& t : terms) {
        const std::int64_t a = sign * t.coeff;
        if (a == 0) continue;
        const std::int64_t slack = sign * c - (total_min - term_min(s, t, sign));
        if (a > 0) {
            if (!s.set_max(t.var, div_floor(slack, a))) return false;
        } else {
            // a*x <= slack with a < 0  <=>  x >= ceil(slack/a)
            // and ceil(x / -b) == -floor(x / b) for b > 0.
            if (!s.set_min(t.var, -div_floor(slack, -a))) return false;
        }
    }
    return true;
}

/// Term storage: inline for the fixed arities 2 and 3, a vector otherwise.
using NaryTerms = std::vector<LinTerm>;
template <std::size_t N>
using FixedTerms = std::array<LinTerm, N>;

template <typename Terms>
constexpr bool kFixedArity = !std::is_same_v<Terms, NaryTerms>;

template <typename Terms>
class LinearLeq final : public Propagator {
public:
    LinearLeq(Terms terms, std::int64_t c) : terms_(std::move(terms)), c_(c) {}

    bool propagate(Store& s) override { return prune_leq(s, terms_, c_, +1); }

    Priority priority() const override { return Priority::Linear; }

    const char* class_name() const override { return "LinearLeq"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<LinearLeq>(*this);
    }

private:
    Terms terms_;
    std::int64_t c_;
};

/// sum(terms) == c as its two inequality directions. The n-ary form runs
/// each direction once per wakeup and leaves the rest to the queue; the
/// fixed-arity form (distinct variables only) alternates directions until
/// one pass moves nothing, which is its own fixpoint.
template <typename Terms>
class LinearEq final : public Propagator {
public:
    LinearEq(Terms terms, std::int64_t c) : terms_(std::move(terms)), c_(c) {}

    bool propagate(Store& s) override {
        if (!prune_leq(s, terms_, c_, +1)) return false;
        if constexpr (!kFixedArity<Terms>) {
            return prune_leq(s, terms_, c_, -1);
        } else {
            for (int sign = -1;; sign = -sign) {
                const std::int64_t changes = s.stats().domain_changes;
                if (!prune_leq(s, terms_, c_, sign)) return false;
                if (s.stats().domain_changes == changes) return true;
            }
        }
    }

    Priority priority() const override { return Priority::Linear; }
    bool idempotent() const override { return kFixedArity<Terms>; }

    const char* class_name() const override { return "LinearEq"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<LinearEq>(*this);
    }

private:
    Terms terms_;
    std::int64_t c_;
};

/// Post Prop over `terms`: the inline fixed-arity form for 2 or 3 distinct
/// variables, the n-ary form otherwise.
template <template <typename> class Prop>
void post_linear(Store& store, std::vector<LinTerm> terms, std::int64_t c,
                 const std::vector<Watch>& watches) {
    const auto distinct = [&terms] {
        for (std::size_t i = 0; i < terms.size(); ++i) {
            for (std::size_t j = i + 1; j < terms.size(); ++j) {
                if (terms[i].var == terms[j].var) return false;
            }
        }
        return true;
    };
    if (terms.size() == 2 && distinct()) {
        store.post(std::make_unique<Prop<FixedTerms<2>>>(FixedTerms<2>{terms[0], terms[1]}, c),
                   watches);
    } else if (terms.size() == 3 && distinct()) {
        store.post(std::make_unique<Prop<FixedTerms<3>>>(
                       FixedTerms<3>{terms[0], terms[1], terms[2]}, c),
                   watches);
    } else {
        store.post(std::make_unique<Prop<NaryTerms>>(std::move(terms), c), watches);
    }
}

class NotEqual final : public Propagator {
public:
    NotEqual(IntVar x, IntVar y, std::int64_t c) : x_(x), y_(y), c_(c) {}

    // x != y + c: value-remove once either side is fixed.
    bool propagate(Store& s) override {
        if (s.fixed(x_)) {
            if (!s.remove(y_, static_cast<std::int64_t>(s.value(x_)) - c_)) return false;
        }
        if (s.fixed(y_)) {
            if (!s.remove(x_, static_cast<std::int64_t>(s.value(y_)) + c_)) return false;
        }
        return true;
    }

    Priority priority() const override { return Priority::Unary; }
    // Removing the fixed side's value from the other side is a no-op on a
    // rerun, even when that removal fixes the other side in turn.
    bool idempotent() const override { return true; }

    const char* class_name() const override { return "NotEqual"; }

    std::unique_ptr<Propagator> clone() const override {
        return std::make_unique<NotEqual>(*this);
    }

private:
    IntVar x_;
    IntVar y_;
    std::int64_t c_;
};

}  // namespace

void post_linear_leq(Store& store, std::vector<LinTerm> terms, std::int64_t c) {
    // Bounds-consistent one direction: the propagator only reads min of
    // positive terms and max of negative terms, so only those bound moves
    // can change its prunes.
    std::vector<Watch> watches;
    watches.reserve(terms.size());
    for (const LinTerm& t : terms) {
        watches.push_back({t.var, t.coeff >= 0 ? kEventMin : kEventMax});
    }
    post_linear<LinearLeq>(store, std::move(terms), c, watches);
}

void post_linear_eq(Store& store, std::vector<LinTerm> terms, std::int64_t c) {
    // Both directions: any bound move matters, interior holes never do.
    std::vector<Watch> watches;
    watches.reserve(terms.size());
    for (const LinTerm& t : terms) watches.push_back({t.var, kEventBounds});
    post_linear<LinearEq>(store, std::move(terms), c, watches);
}

void post_leq_offset(Store& store, IntVar x, std::int64_t c, IntVar y) {
    post_linear_leq(store, {{1, x}, {-1, y}}, -c);
}

void post_eq_offset(Store& store, IntVar x, std::int64_t c, IntVar y) {
    post_linear_eq(store, {{1, x}, {-1, y}}, -c);
}

void post_not_equal(Store& store, IntVar x, IntVar y, std::int64_t c) {
    // Acts only once a side is fixed; bounds and hole changes are ignored.
    store.post(std::make_unique<NotEqual>(x, y, c),
               std::vector<Watch>{{x, kEventFixed}, {y, kEventFixed}});
}

}  // namespace revec::cp
