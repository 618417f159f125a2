// Linear arithmetic propagators: sum a_i*x_i <= c, sum a_i*x_i == c, and
// the disequality x != y + c. Bounds-consistent.
#pragma once

#include <memory>
#include <vector>

#include "revec/cp/propagator.hpp"
#include "revec/cp/store.hpp"
#include "revec/cp/var.hpp"

namespace revec::cp {

/// One term of a linear expression.
struct LinTerm {
    std::int64_t coeff;
    IntVar var;
};

/// Post sum(terms) <= c.
void post_linear_leq(Store& store, std::vector<LinTerm> terms, std::int64_t c);

/// Post sum(terms) == c. Over 2 or 3 distinct variables the propagator
/// reaches its own fixpoint in one run (terms inline, `idempotent()`).
void post_linear_eq(Store& store, std::vector<LinTerm> terms, std::int64_t c);

/// Post x + c <= y  (precedence form).
void post_leq_offset(Store& store, IntVar x, std::int64_t c, IntVar y);

/// Post y == x + c.
void post_eq_offset(Store& store, IntVar x, std::int64_t c, IntVar y);

/// Post x != y + c.
void post_not_equal(Store& store, IntVar x, IntVar y, std::int64_t c = 0);

/// Post x != v for a constant v (applied immediately; no propagator).
void post_not_value(Store& store, IntVar x, std::int64_t v);

}  // namespace revec::cp
