// The paper's access-group rules (§3.4, eqs. 7-9) as one global
// propagator. Vector data that are accessed together must share their page
// and line descriptors: if two such data sit on the same page they must sit
// on the same line. Three families say which data are accessed together:
//   eq. 7: the operands of one vector-core op, unconditionally;
//   eq. 8: the operands of two vector-core ops issued in the same cycle
//          (only when their lanes fit the core side by side);
//   eq. 9: the outputs of two writers whose results land in the same cycle,
//          and the outputs of one writer (a matrix op writes four rows at
//          once), unconditionally.
//
// The textbook decomposition reifies every start, page and line equality
// into a boolean and posts one clause per data pair: O(n^2) variables and
// propagators. This propagator posts none of them and reaches exactly the
// decomposition's fixpoint. For every time pair (i, j) and data pair (d, e)
// of a family:
//   1. times fixed and equal (or an unconditional list) and pages fixed and
//      equal: line_d == line_e, by bounds, which also fixes one line once the
//      other is fixed;
//   2. times fixed and equal (or an unconditional list) and the lines'
//      bounds disjoint: a fixed page's value is removed from the other page;
//   3. pages fixed and equal and the lines' bounds disjoint: a fixed time's
//      value is removed from the other time.
// It is incremental: the store advises it of each changed variable, and a
// run revisits only the members and data whose time, page or line changed.
#pragma once

#include <vector>

#include "revec/cp/store.hpp"
#include "revec/cp/var.hpp"

namespace revec::cp {

/// Lists of vector-data indices in CSR form: list m is
/// data[begin[m] .. begin[m+1]).
struct DataLists {
    std::vector<int> begin{0};
    std::vector<int> data;

    void add(const std::vector<int>& list) {
        data.insert(data.end(), list.begin(), list.end());
        begin.push_back(static_cast<int>(data.size()));
    }
    int size() const { return static_cast<int>(begin.size()) - 1; }
};

/// A family of timed members (eqs. 8 and 9): the data of members i != j are
/// accessed together when time[i] == time[j] and
/// lanes[i] + lanes[j] <= lane_cap.
struct TimedLists {
    DataLists lists;
    std::vector<IntVar> time;
    std::vector<int> lanes;
    int lane_cap = 0;

    void add(IntVar t, int member_lanes, const std::vector<int>& list) {
        time.push_back(t);
        lanes.push_back(member_lanes);
        lists.add(list);
    }
};

/// The eqs. 7-9 groups over vector data 0 .. page.size()-1.
struct AccessGroups {
    std::vector<IntVar> page;  ///< per datum
    std::vector<IntVar> line;  ///< per datum
    DataLists together;        ///< eqs. 7 and 9: each list is accessed together
    TimedLists issue;          ///< eq. 8: operands by issue cycle
    TimedLists landing;        ///< eq. 9: outputs by landing cycle
};

/// Post the access-group rules of `groups`.
void post_access_groups(Store& store, AccessGroups groups);

}  // namespace revec::cp
