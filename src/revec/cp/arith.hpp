// Non-linear arithmetic propagators: z = max(xs) and domain-consistent
// unary function channeling y = f(x) (used for the slot -> line / page
// memory geometry views).
#pragma once

#include <functional>
#include <vector>

#include "revec/cp/store.hpp"
#include "revec/cp/var.hpp"

namespace revec::cp {

/// Post z == max(xs). `xs` must be non-empty.
void post_max(Store& store, IntVar z, std::vector<IntVar> xs);

/// Post y == f(x), domain-consistent in both directions. `f` must be a pure
/// function; it is tabulated over x's current domain when posted, and both
/// that domain's span and the span of its images must stay below 2^16.
/// Intended for small domains (memory slots).
void post_unary_fun(Store& store, IntVar x, IntVar y, const std::function<int(int)>& f);

}  // namespace revec::cp
