// Reification machinery: boolean views of equalities, and clauses over
// boolean variables. The modulo model's reconfiguration count uses them.
// They also decompose the paper's conditional memory rules (eqs. 7-9):
//   s_i = s_j  =>  (page_d = page_e => line_d = line_e)
// as the clause  !(s_i=s_j) \/ !(page_d=page_e) \/ (line_d=line_e). The
// emitter posts cp/access_groups.hpp instead; the tests keep this
// decomposition as its oracle.
#pragma once

#include <vector>

#include "revec/cp/store.hpp"
#include "revec/cp/var.hpp"

namespace revec::cp {

/// A boolean literal: a BoolVar, possibly negated.
struct Literal {
    BoolVar var;
    bool positive = true;
};

inline Literal pos(BoolVar b) { return {b, true}; }
inline Literal neg(BoolVar b) { return {b, false}; }

/// Post b <-> (x == y).
void post_reified_eq(Store& store, BoolVar b, IntVar x, IntVar y);

/// Post b <-> (x == c).
void post_reified_eq_const(Store& store, BoolVar b, IntVar x, int c);

/// Post the disjunction of the literals (at least one must hold).
void post_clause(Store& store, std::vector<Literal> lits);

/// Post a -> b for booleans.
void post_implies(Store& store, BoolVar a, BoolVar b);

}  // namespace revec::cp
