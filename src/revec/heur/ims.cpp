#include "revec/heur/ims.hpp"

#include <algorithm>

#include "revec/support/assert.hpp"

namespace revec::heur {

namespace {

/// Per-residue reservation tables for one candidate II. Durations extend
/// past the kernel end without wrapping, exactly like the CP emitter's
/// cumulative tasks over the residue variables, so the arrays are sized
/// ii + max_duration.
struct KernelReservations {
    std::vector<int> lanes;
    std::vector<int> scalar;
    std::vector<int> ixmerge;
    std::vector<int> config;  ///< per start residue; -1 = free

    explicit KernelReservations(int ii, int max_duration)
        : lanes(static_cast<std::size_t>(ii + max_duration), 0),
          scalar(static_cast<std::size_t>(ii + max_duration), 0),
          ixmerge(static_cast<std::size_t>(ii + max_duration), 0),
          config(static_cast<std::size_t>(ii), -1) {}
};

}  // namespace

ImsResult iterative_modulo_schedule(const model::KernelModel& m, const ImsOptions& options) {
    REVEC_EXPECTS(options.min_ii >= 1);
    const int n = m.num_nodes();
    ImsResult result;

    // Same priority as the flat list scheduler: least slack, then earliest
    // ALAP, then input order.
    const std::vector<int>& asap = m.asap;
    const std::vector<int>& alap = m.alap;
    std::vector<int> pending = m.ops;
    std::sort(pending.begin(), pending.end(), [&](int a, int b) {
        const auto ia = static_cast<std::size_t>(a);
        const auto ib = static_cast<std::size_t>(b);
        const int slack_a = alap[ia] - asap[ia];
        const int slack_b = alap[ib] - asap[ib];
        if (slack_a != slack_b) return slack_a < slack_b;
        if (alap[ia] != alap[ib]) return alap[ia] < alap[ib];
        return a < b;
    });

    int max_duration = 1;
    for (const int op : m.ops) {
        max_duration = std::max(max_duration, m.node(op).duration);
    }

    for (int ii = options.min_ii; ii <= options.max_ii; ++ii) {
        KernelReservations res(ii, max_duration);
        std::vector<int> start(static_cast<std::size_t>(n), 0);
        std::vector<int> avail(static_cast<std::size_t>(n), -1);
        for (const int d : m.inputs) avail[static_cast<std::size_t>(d)] = 0;
        std::vector<char> done(static_cast<std::size_t>(n), 0);

        const auto fits = [&](const model::ModelNode& node, int at) {
            const int r = at % ii;
            if (node.lanes > 0) {
                // One configuration per start residue (the emitter's
                // pairwise not-equal over ops of different configurations).
                const int held = res.config[static_cast<std::size_t>(r)];
                if (held != -1 && held != node.config) return false;
                for (int d = 0; d < node.duration; ++d) {
                    if (res.lanes[static_cast<std::size_t>(r + d)] + node.lanes >
                        m.caps.vector_lanes) {
                        return false;
                    }
                }
            } else if (node.unit == model::Unit::Scalar) {
                for (int d = 0; d < node.duration; ++d) {
                    if (res.scalar[static_cast<std::size_t>(r + d)] + 1 > m.caps.scalar_units) {
                        return false;
                    }
                }
            } else {
                for (int d = 0; d < node.duration; ++d) {
                    if (res.ixmerge[static_cast<std::size_t>(r + d)] + 1 >
                        m.caps.index_merge_units) {
                        return false;
                    }
                }
            }
            return true;
        };

        const auto commit = [&](const model::ModelNode& node, int at) {
            const int r = at % ii;
            if (node.lanes > 0) {
                res.config[static_cast<std::size_t>(r)] = node.config;
                for (int d = 0; d < node.duration; ++d) {
                    res.lanes[static_cast<std::size_t>(r + d)] += node.lanes;
                }
            } else if (node.unit == model::Unit::Scalar) {
                for (int d = 0; d < node.duration; ++d) {
                    res.scalar[static_cast<std::size_t>(r + d)] += 1;
                }
            } else {
                for (int d = 0; d < node.duration; ++d) {
                    res.ixmerge[static_cast<std::size_t>(r + d)] += 1;
                }
            }
            const auto i = static_cast<std::size_t>(node.id);
            start[i] = at;
            done[i] = 1;
            for (const int succ : node.succs) {
                avail[static_cast<std::size_t>(succ)] = at + node.latency;
                start[static_cast<std::size_t>(succ)] = at + node.latency;  // eq. 4
            }
        };

        bool feasible = true;
        std::size_t placed = 0;
        while (placed < pending.size() && feasible) {
            // Highest-priority dependency-ready operation.
            int chosen = -1;
            int ready_at = 0;
            for (const int op : pending) {
                if (done[static_cast<std::size_t>(op)]) continue;
                bool ready = true;
                int at = 0;
                for (const int d : m.node(op).preds) {
                    const auto di = static_cast<std::size_t>(d);
                    if (avail[di] < 0) {
                        ready = false;
                        break;
                    }
                    at = std::max(at, avail[di] + m.node(d).latency);
                }
                if (ready) {
                    chosen = op;
                    ready_at = at;
                    break;
                }
            }
            REVEC_ASSERT(chosen >= 0);  // a DAG always has a ready op left
            const model::ModelNode& node = m.node(chosen);
            // II consecutive cycles cover every residue, so a full miss
            // proves the greedy state admits no placement at this II.
            bool committed = false;
            for (int at = ready_at; at < ready_at + ii; ++at) {
                if (!fits(node, at)) continue;
                commit(node, at);
                committed = true;
                ++placed;
                break;
            }
            if (!committed) feasible = false;
        }
        if (!feasible) continue;

        result.ok = true;
        result.ii = ii;
        result.start = std::move(start);
        result.residue.assign(static_cast<std::size_t>(n), -1);
        result.stage.assign(static_cast<std::size_t>(n), -1);
        for (const int op : m.ops) {
            const auto i = static_cast<std::size_t>(op);
            result.residue[i] = result.start[i] % ii;
            result.stage[i] = result.start[i] / ii;
        }
        return result;
    }
    return result;
}

}  // namespace revec::heur
