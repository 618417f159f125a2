#include "revec/heur/list.hpp"

#include <algorithm>
#include <map>

#include "revec/support/assert.hpp"

namespace revec::heur {

namespace {

/// Per-cycle reservation state. Maps keep the schedule sparse: only cycles
/// something occupies are stored, so long latency gaps cost nothing.
struct Reservations {
    std::map<int, int> lanes;          ///< cycle -> vector lanes in use
    std::map<int, int> config;         ///< cycle -> loaded configuration id
    std::map<int, int> scalar;         ///< cycle -> scalar issues
    std::map<int, int> ixmerge;        ///< cycle -> index/merge issues
    std::map<int, int> reads;          ///< cycle -> vector reads (issue time)
    std::map<int, int> writes;         ///< cycle -> vector writes (landing time)
    std::map<int, int> vector_issues;  ///< cycle -> vector-core ops issued
};

int count_at(const std::map<int, int>& m, int t) {
    const auto it = m.find(t);
    return it == m.end() ? 0 : it->second;
}

}  // namespace

ListResult priority_list_schedule(const model::KernelModel& m, const ListOptions& options) {
    const int n = m.num_nodes();
    ListResult result;
    result.start.assign(static_cast<std::size_t>(n), 0);

    // Priority: least slack first (ALAP - ASAP against the critical-path
    // horizon), then earliest ALAP, then input order. Critical-path
    // operations have zero slack and always go first. An external
    // priority_hint (donor-schedule order from the adaptation layer)
    // precedes the slack key when supplied.
    const std::vector<int>& asap = m.asap;
    const std::vector<int>& alap = m.alap;
    const std::vector<int>& hint = options.priority_hint;
    REVEC_EXPECTS(hint.empty() || hint.size() == static_cast<std::size_t>(n));
    const auto priority_before = [&](int a, int b) {
        const auto ia = static_cast<std::size_t>(a);
        const auto ib = static_cast<std::size_t>(b);
        if (!hint.empty() && hint[ia] != hint[ib]) return hint[ia] < hint[ib];
        const int slack_a = alap[ia] - asap[ia];
        const int slack_b = alap[ib] - asap[ib];
        if (slack_a != slack_b) return slack_a < slack_b;
        if (alap[ia] != alap[ib]) return alap[ia] < alap[ib];
        return a < b;
    };

    std::vector<int> pending = m.ops;
    std::sort(pending.begin(), pending.end(), priority_before);

    // Data availability time; -1 = not yet produced.
    std::vector<int> avail(static_cast<std::size_t>(n), -1);
    for (const int d : m.inputs) avail[static_cast<std::size_t>(d)] = 0;

    Reservations res;
    int scheduled = 0;
    const int total_ops = static_cast<int>(pending.size());
    std::vector<char> done(static_cast<std::size_t>(n), 0);

    // Per-node vector-memory traffic comes straight off the model: vector
    // reads happen at issue time of vector-core ops, every produced vector
    // datum is a write landing at the producer's completion.
    const auto vreads = [&](const model::ModelNode& node) {
        return static_cast<int>(node.vector_inputs.size());
    };
    const auto vwrites = [&](const model::ModelNode& node) {
        return static_cast<int>(node.vector_outputs.size());
    };

    const auto fits = [&](const model::ModelNode& node, int at) {
        if (node.lanes > 0) {
            if (options.serialize_vector_issue && count_at(res.vector_issues, at) > 0) {
                return false;
            }
            for (int d = 0; d < node.duration; ++d) {
                if (count_at(res.lanes, at + d) + node.lanes > m.caps.vector_lanes) return false;
                const auto it = res.config.find(at + d);
                if (it != res.config.end() && it->second != node.config) return false;
            }
            if (options.enforce_port_limits && vreads(node) > 0 &&
                count_at(res.reads, at) + vreads(node) > m.caps.max_vector_reads) {
                return false;
            }
        } else if (node.unit == model::Unit::Scalar) {
            for (int d = 0; d < node.duration; ++d) {
                if (count_at(res.scalar, at + d) + 1 > m.caps.scalar_units) return false;
            }
        } else {
            for (int d = 0; d < node.duration; ++d) {
                if (count_at(res.ixmerge, at + d) + 1 > m.caps.index_merge_units) return false;
            }
        }
        if (vwrites(node) > 0) {
            const int landing = count_at(res.writes, at + node.latency);
            if (options.enforce_port_limits &&
                landing + vwrites(node) > m.caps.max_vector_writes) {
                return false;
            }
            // Spread mode: this op's outputs land in an otherwise write-free
            // cycle. A multi-output op's own writes still land together --
            // that grouping is intrinsic to the op, not schedule-induced.
            if (options.spread_writes && landing > 0) return false;
        }
        return true;
    };

    const auto commit = [&](const model::ModelNode& node, int at) {
        const auto i = static_cast<std::size_t>(node.id);
        if (node.lanes > 0) {
            for (int d = 0; d < node.duration; ++d) {
                res.lanes[at + d] += node.lanes;
                res.config.emplace(at + d, node.config);
            }
            res.reads[at] += vreads(node);
            res.vector_issues[at] += 1;
        } else if (node.unit == model::Unit::Scalar) {
            for (int d = 0; d < node.duration; ++d) res.scalar[at + d] += 1;
        } else {
            for (int d = 0; d < node.duration; ++d) res.ixmerge[at + d] += 1;
        }
        res.writes[at + node.latency] += vwrites(node);

        result.start[i] = at;
        done[i] = 1;
        ++scheduled;
        for (const int d : node.succs) {
            avail[static_cast<std::size_t>(d)] = at + node.latency;
            result.start[static_cast<std::size_t>(d)] = at + node.latency;  // eq. 4
        }
    };

    int t = 0;
    while (scheduled < total_ops) {
        for (const int op : pending) {
            if (done[static_cast<std::size_t>(op)]) continue;
            const model::ModelNode& node = m.node(op);
            bool ready = true;
            for (const int d : node.preds) {
                const int a = avail[static_cast<std::size_t>(d)];
                if (a < 0 || a > t) {
                    ready = false;
                    break;
                }
            }
            if (!ready) continue;
            if (!fits(node, t)) continue;
            commit(node, t);
        }
        ++t;
        REVEC_ASSERT(t < 1000000);  // progress guard
    }

    int makespan = 0;
    for (const model::ModelNode& node : m.nodes) {
        makespan = std::max(makespan,
                            result.start[static_cast<std::size_t>(node.id)] + node.latency);
    }
    result.makespan = makespan;
    return result;
}

const std::vector<ListOptions>& ladder() {
    static const std::vector<ListOptions> rungs = {
        {true, false, false, {}},  // packed
        {true, true, false, {}},   // serialize vector issue
        {true, true, true, {}},    // ... and spread write-backs
    };
    return rungs;
}

}  // namespace revec::heur
