#include "revec/model/fingerprint.hpp"

#include <algorithm>
#include <string>
#include <tuple>

namespace revec::model {

namespace {

/// FNV-1a accumulator, same constants as canonical_hash so both hashes
/// share their platform-stability story.
struct Fnv {
    std::uint64_t h = 14695981039346656037ull;
    void byte(unsigned char b) {
        h ^= b;
        h *= 1099511628211ull;
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void i32(int v) { u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))); }
    void str(const std::string& s) {
        for (const char c : s) byte(static_cast<unsigned char>(c));
        byte(0xff);  // terminator so "ab","c" != "a","bc"
    }
};

const std::string& config_key_of(const KernelModel& m, const ModelNode& n) {
    static const std::string kNone;
    if (n.config < 0 || n.config >= static_cast<int>(m.config_keys.size())) return kNone;
    return m.config_keys[static_cast<std::size_t>(n.config)];
}

/// The structural tuple of one node — everything structural_fingerprint
/// hashes per node and diff() compares for "same operation".
bool same_structure(const KernelModel& ma, const ModelNode& a, const KernelModel& mb,
                    const ModelNode& b) {
    return a.is_op == b.is_op && a.is_vector_data == b.is_vector_data && a.op == b.op &&
           a.unit == b.unit && a.lanes == b.lanes &&
           config_key_of(ma, a) == config_key_of(mb, b);
}

bool same_timing(const ModelNode& a, const ModelNode& b) {
    return a.latency == b.latency && a.duration == b.duration &&
           a.lifetime_extra == b.lifetime_extra;
}

using EdgeTriple = std::tuple<int, int, int>;

std::vector<EdgeTriple> edge_triples(const KernelModel& m) {
    std::vector<EdgeTriple> out;
    out.reserve(m.edges.size());
    for (const ModelEdge& e : m.edges) {
        out.emplace_back(e.src, e.dst, e.kind == EdgeKind::DataProduce ? 1 : 0);
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool same_semantics(const KernelModel& a, const KernelModel& b) {
    return a.memory_allocation == b.memory_allocation &&
           a.enforce_port_limits == b.enforce_port_limits &&
           a.lifetime_includes_last_read == b.lifetime_includes_last_read &&
           a.modulo.has_value() == b.modulo.has_value() &&
           a.fixed_starts.empty() == b.fixed_starts.empty();
}

bool same_geometry_knobs(const KernelModel& a, const KernelModel& b) {
    const bool base = a.geometry.banks == b.geometry.banks &&
                      a.geometry.banks_per_page == b.geometry.banks_per_page &&
                      a.geometry.lines == b.geometry.lines &&
                      a.num_slots == b.num_slots &&
                      a.caps.vector_lanes == b.caps.vector_lanes &&
                      a.caps.scalar_units == b.caps.scalar_units &&
                      a.caps.index_merge_units == b.caps.index_merge_units &&
                      a.caps.max_vector_reads == b.caps.max_vector_reads &&
                      a.caps.max_vector_writes == b.caps.max_vector_writes &&
                      a.caps.reconfig_cycles == b.caps.reconfig_cycles;
    if (!base) return false;
    if (a.modulo.has_value() && b.modulo.has_value()) {
        return a.modulo->ii == b.modulo->ii &&
               a.modulo->minimize_reconfigs == b.modulo->minimize_reconfigs &&
               a.modulo->reconfig_budget == b.modulo->reconfig_budget;
    }
    return true;
}

}  // namespace

std::uint64_t structural_fingerprint(const KernelModel& m) {
    Fnv f;
    // Geometry class: which constraint families the model carries, not the
    // constants they are parameterized with.
    f.byte(m.memory_allocation ? 1 : 0);
    f.byte(m.enforce_port_limits ? 1 : 0);
    f.byte(m.lifetime_includes_last_read ? 1 : 0);
    f.byte(m.modulo.has_value() ? 1 : 0);
    f.byte(m.fixed_starts.empty() ? 0 : 1);

    f.i32(m.num_nodes());
    for (const ModelNode& n : m.nodes) {
        f.byte(n.is_op ? 1 : 0);
        f.byte(n.is_vector_data ? 1 : 0);
        f.str(n.op);
        f.i32(static_cast<int>(n.unit));
        f.i32(n.lanes);
        f.str(config_key_of(m, n));
    }

    f.i32(static_cast<int>(m.edges.size()));
    for (const EdgeTriple& e : edge_triples(m)) {
        f.i32(std::get<0>(e));
        f.i32(std::get<1>(e));
        f.byte(static_cast<unsigned char>(std::get<2>(e)));
    }
    return f.h;
}

bool ModelDelta::compatible() const {
    if (!comparable || semantics_changed) return false;
    const int churn = static_cast<int>(edited_nodes.size() + added_nodes.size() +
                                       removed_nodes.size());
    const int budget = std::max(1, node_count_b / 4);
    if (churn > budget) return false;
    // Edge churn beyond what the node churn explains means the dependency
    // structure was rewired wholesale; the donor's shape is stale.
    return edges_added + edges_removed <= 6 * churn;
}

int ModelDelta::distance() const {
    const int structural = 4 * static_cast<int>(edited_nodes.size()) +
                           6 * static_cast<int>(added_nodes.size() + removed_nodes.size()) +
                           edges_added + edges_removed;
    return structural + (geometry_changed ? 8 : 0) + (semantics_changed ? 64 : 0);
}

ModelDelta diff(const KernelModel& a, const KernelModel& b) {
    ModelDelta d;
    d.node_count_a = a.num_nodes();
    d.node_count_b = b.num_nodes();

    const int mapped = std::min(d.node_count_a, d.node_count_b);
    d.comparable = true;
    for (int id = 0; id < mapped; ++id) {
        const ModelNode& na = a.node(id);
        const ModelNode& nb = b.node(id);
        if (na.is_op != nb.is_op || na.is_vector_data != nb.is_vector_data) {
            d.comparable = false;
        }
        if (!same_structure(a, na, b, nb) || !same_timing(na, nb)) {
            d.edited_nodes.push_back(id);
        }
    }
    for (int id = mapped; id < d.node_count_b; ++id) d.added_nodes.push_back(id);
    for (int id = mapped; id < d.node_count_a; ++id) d.removed_nodes.push_back(id);

    // Edge churn over (src, dst, kind) multisets. Edges touching
    // added/removed ids naturally land in the respective count.
    const std::vector<EdgeTriple> ea = edge_triples(a);
    const std::vector<EdgeTriple> eb = edge_triples(b);
    std::vector<EdgeTriple> only_a;
    std::vector<EdgeTriple> only_b;
    std::set_difference(ea.begin(), ea.end(), eb.begin(), eb.end(),
                        std::back_inserter(only_a));
    std::set_difference(eb.begin(), eb.end(), ea.begin(), ea.end(),
                        std::back_inserter(only_b));
    d.edges_removed = static_cast<int>(only_a.size());
    d.edges_added = static_cast<int>(only_b.size());

    d.semantics_changed = !same_semantics(a, b);
    d.geometry_changed = !same_geometry_knobs(a, b);

    // Bound constants over the mapped prefix plus the horizon itself.
    if (b.horizon < a.horizon) d.bounds_tightened = true;
    if (b.horizon > a.horizon) d.bounds_loosened = true;
    for (int id = 0; id < mapped; ++id) {
        const auto i = static_cast<std::size_t>(id);
        if (i < a.asap.size() && i < b.asap.size()) {
            if (b.asap[i] > a.asap[i]) d.bounds_tightened = true;
            if (b.asap[i] < a.asap[i]) d.bounds_loosened = true;
        }
        if (i < a.alap.size() && i < b.alap.size()) {
            if (b.alap[i] < a.alap[i]) d.bounds_tightened = true;
            if (b.alap[i] > a.alap[i]) d.bounds_loosened = true;
        }
    }
    return d;
}

}  // namespace revec::model
