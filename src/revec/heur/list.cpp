#include "revec/heur/list.hpp"

#include <algorithm>
#include <bit>

#include "revec/support/assert.hpp"

namespace revec::heur {

namespace {

/// Reservations of one cycle.
struct Cycle {
    int lanes = 0;          ///< vector lanes in use
    int config = 0;         ///< loaded configuration id; meaningful iff lanes > 0
    int scalar = 0;         ///< scalar issues
    int ixmerge = 0;        ///< index/merge issues
    int reads = 0;          ///< vector reads (issue time)
    int writes = 0;         ///< vector writes (landing time)
    int vector_issues = 0;  ///< vector-core ops issued
};

/// Per-cycle reservation tables over the only cycles an op issued at the
/// current cycle t can touch: [t, t + max latency + max duration). t only
/// grows, so the window is a ring -- cycle c lives at c & mask -- and a
/// cycle is cleared as t passes it, which hands its entry to the cycle that
/// enters the window's far end.
class Window {
public:
    explicit Window(int span)
        : cycles_(std::bit_ceil(static_cast<unsigned>(span))),
          mask_(static_cast<int>(cycles_.size()) - 1) {}

    Cycle& operator[](int cycle) { return cycles_[static_cast<std::size_t>(cycle & mask_)]; }
    void retire(int cycle) { (*this)[cycle] = Cycle{}; }

private:
    std::vector<Cycle> cycles_;
    int mask_;
};

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

    // The window spans every cycle a reservation can land on; timings
    // come bounded from ArchSpec::validate and model::from_json.
    int max_latency = 0;
    int max_duration = 0;
    for (const int op : m.ops) {
        const model::ModelNode& node = m.node(op);
        REVEC_EXPECTS(node.latency >= 0 && node.latency <= arch::kMaxLatency);
        REVEC_EXPECTS(node.duration >= 0 && node.duration <= arch::kMaxLatency);
        max_latency = std::max(max_latency, node.latency);
        max_duration = std::max(max_duration, node.duration);
    }
    Window res(max_latency + max_duration + 1);

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
            if (options.serialize_vector_issue && res[at].vector_issues > 0) return false;
            for (int d = 0; d < node.duration; ++d) {
                const Cycle& c = res[at + d];
                if (c.lanes + node.lanes > m.caps.vector_lanes) return false;
                if (c.lanes > 0 && c.config != node.config) return false;
            }
            if (options.enforce_port_limits && vreads(node) > 0 &&
                res[at].reads + vreads(node) > m.caps.max_vector_reads) {
                return false;
            }
        } else if (node.unit == model::Unit::Scalar) {
            for (int d = 0; d < node.duration; ++d) {
                if (res[at + d].scalar + 1 > m.caps.scalar_units) return false;
            }
        } else {
            for (int d = 0; d < node.duration; ++d) {
                if (res[at + d].ixmerge + 1 > m.caps.index_merge_units) return false;
            }
        }
        if (vwrites(node) > 0) {
            const int landing = res[at + node.latency].writes;
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
                Cycle& c = res[at + d];
                if (c.lanes == 0) c.config = node.config;  // the first op loads it
                c.lanes += node.lanes;
            }
            res[at].reads += vreads(node);
            res[at].vector_issues += 1;
        } else if (node.unit == model::Unit::Scalar) {
            for (int d = 0; d < node.duration; ++d) res[at + d].scalar += 1;
        } else {
            for (int d = 0; d < node.duration; ++d) res[at + d].ixmerge += 1;
        }
        res[at + node.latency].writes += vwrites(node);

        result.start[i] = at;
        for (const int d : node.succs) {
            avail[static_cast<std::size_t>(d)] = at + node.latency;
            result.start[static_cast<std::size_t>(d)] = at + node.latency;  // eq. 4
        }
    };

    // Each cycle walks the unscheduled ops in priority order; the ones that
    // issue drop out of `pending`, the rest keep their order.
    int t = 0;
    while (!pending.empty()) {
        std::size_t kept = 0;
        for (const int op : pending) {
            const model::ModelNode& node = m.node(op);
            bool ready = true;
            for (const int d : node.preds) {
                const int a = avail[static_cast<std::size_t>(d)];
                if (a < 0 || a > t) {
                    ready = false;
                    break;
                }
            }
            if (ready && fits(node, t)) {
                commit(node, t);
            } else {
                pending[kept++] = op;
            }
        }
        pending.resize(kept);
        res.retire(t);
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
