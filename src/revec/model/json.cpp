#include "revec/model/json.hpp"

#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>

#include "revec/support/assert.hpp"

namespace revec::model {

namespace {

void append_ints(json::Writer& os, const std::vector<int>& xs) {
    os << '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) os << ',';
        os << xs[i];
    }
    os << ']';
}

const char* unit_name(Unit u) {
    switch (u) {
        case Unit::VectorCore: return "vector_core";
        case Unit::Scalar: return "scalar";
        case Unit::IndexMerge: return "index_merge";
        case Unit::None: return "none";
    }
    REVEC_UNREACHABLE("bad Unit");
}

const char* bool_name(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string to_json(const KernelModel& m) {
    json::Writer os;
    os << "{\n";
    os << "  \"name\": ";
    os.quoted(m.name);
    os << ",\n";

    os << "  \"geometry\": {\"banks\": " << m.geometry.banks
       << ", \"banks_per_page\": " << m.geometry.banks_per_page
       << ", \"lines\": " << m.geometry.lines << "},\n";
    os << "  \"caps\": {\"vector_lanes\": " << m.caps.vector_lanes
       << ", \"scalar_units\": " << m.caps.scalar_units
       << ", \"index_merge_units\": " << m.caps.index_merge_units
       << ", \"max_vector_reads\": " << m.caps.max_vector_reads
       << ", \"max_vector_writes\": " << m.caps.max_vector_writes
       << ", \"reconfig_cycles\": " << m.caps.reconfig_cycles << "},\n";

    os << "  \"num_slots\": " << m.num_slots << ",\n";
    os << "  \"horizon\": " << m.horizon << ",\n";
    os << "  \"critical_path\": " << m.critical_path << ",\n";
    os << "  \"memory_allocation\": " << bool_name(m.memory_allocation) << ",\n";
    os << "  \"three_phase_search\": " << bool_name(m.three_phase_search) << ",\n";
    os << "  \"enforce_port_limits\": " << bool_name(m.enforce_port_limits) << ",\n";
    os << "  \"lifetime_includes_last_read\": " << bool_name(m.lifetime_includes_last_read)
       << ",\n";

    os << "  \"config_keys\": [";
    for (std::size_t i = 0; i < m.config_keys.size(); ++i) {
        if (i > 0) os << ", ";
        os.quoted(m.config_keys[i]);
    }
    os << "],\n";

    os << "  \"ops\": ";
    append_ints(os, m.ops);
    os << ",\n  \"vector_ops\": ";
    append_ints(os, m.vector_ops);
    os << ",\n  \"vdata\": ";
    append_ints(os, m.vdata);
    os << ",\n  \"inputs\": ";
    append_ints(os, m.inputs);
    os << ",\n  \"asap\": ";
    append_ints(os, m.asap);
    os << ",\n  \"alap\": ";
    append_ints(os, m.alap);
    os << ",\n";

    if (!m.fixed_starts.empty()) {
        os << "  \"fixed_starts\": ";
        append_ints(os, m.fixed_starts);
        os << ",\n";
    }
    if (m.modulo.has_value()) {
        os << "  \"modulo\": {\"ii\": " << m.modulo->ii
           << ", \"max_stage\": " << m.modulo->max_stage
           << ", \"minimize_reconfigs\": " << bool_name(m.modulo->minimize_reconfigs)
           << ", \"reconfig_budget\": " << m.modulo->reconfig_budget << "},\n";
    }

    os << "  \"nodes\": [\n";
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
        const ModelNode& n = m.nodes[i];
        os << "    {\"id\": " << n.id << ", \"is_op\": " << bool_name(n.is_op)
           << ", \"cat\": ";
        os.quoted(n.cat);
        os << ", \"op\": ";
        os.quoted(n.op);
        os << ", \"latency\": " << n.latency << ", \"duration\": " << n.duration
           << ", \"lanes\": " << n.lanes << ", \"unit\": \"" << unit_name(n.unit)
           << "\", \"config\": " << n.config;
        os << ", \"preds\": ";
        append_ints(os, n.preds);
        os << ", \"succs\": ";
        append_ints(os, n.succs);
        if (n.is_op) {
            os << ", \"vector_inputs\": ";
            append_ints(os, n.vector_inputs);
            os << ", \"vector_outputs\": ";
            append_ints(os, n.vector_outputs);
        } else {
            os << ", \"is_input\": " << bool_name(n.is_input)
               << ", \"persists\": " << bool_name(n.persists)
               << ", \"lifetime_extra\": " << n.lifetime_extra;
        }
        os << "}" << (i + 1 < m.nodes.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    os << "  \"edges\": [\n";
    for (std::size_t i = 0; i < m.edges.size(); ++i) {
        const ModelEdge& e = m.edges[i];
        os << "    {\"src\": " << e.src << ", \"dst\": " << e.dst
           << ", \"latency\": " << e.latency << ", \"kind\": \""
           << (e.kind == EdgeKind::DataProduce ? "data_produce" : "precedence") << "\"}"
           << (i + 1 < m.edges.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.take();
}

void save_json(const KernelModel& m, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw Error("cannot write model dump to " + path);
    out << to_json(m);
    if (!out) throw Error("failed writing model dump to " + path);
}

namespace {

using json::Value;

[[noreturn]] void bad_field(std::string_view key, const char* context) {
    throw Error("kernel model JSON: missing or mistyped field '" + std::string(key) + "' (" +
                context + ")");
}

/// Throw for the first of the `required` fields (in `names` order) that
/// `seen` lacks.
template <std::size_t N>
void require(std::uint32_t seen, std::uint32_t required,
             const std::array<std::string_view, N>& names, const char* context) {
    if (const std::uint32_t missing = required & ~seen; missing != 0) {
        bad_field(names[static_cast<std::size_t>(std::countr_zero(missing))], context);
    }
}

/// Mask of every one of `N` fields.
template <std::size_t N>
constexpr std::uint32_t all_of(const std::array<std::string_view, N>&) {
    return static_cast<std::uint32_t>((std::uint64_t{1} << N) - 1);
}

constexpr std::uint32_t bit(std::size_t i) { return 1u << i; }

/// The value of one model field, read straight off the reader: its key and
/// context name only the error messages. Every read consumes the value.
class Field {
public:
    Field(json::Reader& in, std::string_view key, const char* context)
        : in_(in), key_(key), context_(context) {}

    [[noreturn]] void bad() const { bad_field(key_, context_); }

    /// The value as an int, or nullopt (value consumed either way) when it
    /// is not a number an int holds exactly: numbers outside the int range
    /// are rejected instead of cast, which would be undefined behaviour,
    /// and so are fractions, which a cast would silently truncate.
    std::optional<int> try_int() {
        if (in_.peek() != Value::Type::Number) {
            in_.skip();
            return std::nullopt;
        }
        const double v = in_.number();
        if (!(v >= INT_MIN && v <= INT_MAX) || v != std::trunc(v)) return std::nullopt;
        return static_cast<int>(v);
    }

    std::optional<bool> try_bool() {
        if (in_.peek() != Value::Type::Bool) {
            in_.skip();
            return std::nullopt;
        }
        return in_.boolean();
    }

    /// An array of ints appended to `out`; false (value consumed) when the
    /// value is not one.
    bool try_ints(std::vector<int>& out) {
        if (in_.peek() != Value::Type::Array) {
            in_.skip();
            return false;
        }
        bool ok = true;
        in_.array([&] {
            if (const std::optional<int> v = try_int()) {
                out.push_back(*v);
            } else {
                ok = false;
            }
        });
        return ok;
    }

    int integer() {
        const std::optional<int> v = try_int();
        if (!v) bad();
        return *v;
    }

    int positive() {
        const int v = integer();
        if (v <= 0) {
            throw Error("kernel model JSON: '" + std::string(key_) + "' (" + context_ +
                        ") must be positive");
        }
        return v;
    }

    bool boolean() {
        const std::optional<bool> v = try_bool();
        if (!v) bad();
        return *v;
    }

    std::vector<int> ints() {
        std::vector<int> out;
        if (!try_ints(out)) bad();
        return out;
    }

    std::string string() {
        if (in_.peek() != Value::Type::String) bad();
        return in_.string();
    }

    /// An object whose fields are `names`, read in `context`:
    /// `on_field(Field&, i)` reads names[i], and the fields in `required`
    /// must all be there. Returns the mask seen.
    template <std::size_t N, typename OnField>
    std::uint32_t object(const std::array<std::string_view, N>& names, const char* context,
                         std::uint32_t required, OnField&& on_field) {
        if (in_.peek() != Value::Type::Object) bad();
        const std::uint32_t seen = in_.fields(names, [&](std::size_t i) {
            Field f(in_, names[i], context);
            on_field(f, i);
        });
        require(seen, required, names, context);
        return seen;
    }

    /// An array: `on_elem()` reads each element through this field, so a
    /// mistyped element names the array's key.
    template <typename OnElem>
    void array(OnElem&& on_elem) {
        if (in_.peek() != Value::Type::Array) bad();
        in_.array(on_elem);
    }

    /// An array whose elements are objects of `names`, each read as by
    /// object(); `on_close(seen)` runs after each element.
    template <std::size_t N, typename OnField, typename OnClose>
    void objects(const std::array<std::string_view, N>& names, const char* context,
                 std::uint32_t required, OnField&& on_field, OnClose&& on_close) {
        array([&] { on_close(object(names, context, required, on_field)); });
    }

private:
    json::Reader& in_;
    std::string_view key_;
    const char* context_;
};

Unit parse_unit(const std::string& s) {
    if (s == "vector_core") return Unit::VectorCore;
    if (s == "scalar") return Unit::Scalar;
    if (s == "index_merge") return Unit::IndexMerge;
    if (s == "none") return Unit::None;
    throw Error("kernel model JSON: unknown unit '" + s + "'");
}

EdgeKind parse_edge_kind(const std::string& s) {
    if (s == "data_produce") return EdgeKind::DataProduce;
    if (s == "precedence") return EdgeKind::Precedence;
    throw Error("kernel model JSON: unknown edge kind '" + s + "'");
}

/// Throw unless `id` names one of the model's `n` nodes.
void check_id(int id, int n, const char* what) {
    if (id < 0 || id >= n) {
        throw Error(std::string("kernel model JSON: ") + what + " id out of range");
    }
}

void check_ids(const std::vector<int>& ids, int n, const char* what) {
    for (const int id : ids) check_id(id, n, what);
}

// The fields of each object of the to_json shape, in to_json order; a
// field's index is its bit in the reader's seen mask.

enum ModelKey : std::size_t {
    kName, kGeometry, kCaps, kNumSlots, kHorizon, kCriticalPath, kMemoryAllocation,
    kThreePhaseSearch, kEnforcePortLimits, kLifetimeIncludesLastRead, kConfigKeys, kOps,
    kVectorOps, kVdata, kInputs, kAsap, kAlap, kFixedStarts, kModulo, kNodes, kEdges,
};
constexpr std::array<std::string_view, 21> kModelKeys = {
    "name", "geometry", "caps", "num_slots", "horizon", "critical_path",
    "memory_allocation", "three_phase_search", "enforce_port_limits",
    "lifetime_includes_last_read", "config_keys", "ops", "vector_ops", "vdata", "inputs",
    "asap", "alap", "fixed_starts", "modulo", "nodes", "edges",
};
constexpr std::uint32_t kOptionalModelKeys = bit(kFixedStarts) | bit(kModulo);

constexpr std::array<std::string_view, 3> kGeometryKeys = {"banks", "banks_per_page", "lines"};
constexpr std::array<std::string_view, 6> kCapsKeys = {
    "vector_lanes", "scalar_units", "index_merge_units", "max_vector_reads",
    "max_vector_writes", "reconfig_cycles",
};
constexpr std::array<std::string_view, 4> kModuloKeys = {"ii", "max_stage",
                                                         "minimize_reconfigs", "reconfig_budget"};

enum NodeKey : std::size_t {
    kId, kIsOp, kCat, kOp, kLatency, kDuration, kLanes, kUnit, kConfig, kPreds, kSuccs,
    kVectorInputs, kVectorOutputs, kIsInput, kPersists, kLifetimeExtra,
};
constexpr std::array<std::string_view, 16> kNodeKeys = {
    "id", "is_op", "cat", "op", "latency", "duration", "lanes", "unit", "config", "preds",
    "succs", "vector_inputs", "vector_outputs", "is_input", "persists", "lifetime_extra",
};
// Fields every node needs; an op node also needs kOpNodeKeys, a data node
// kDataNodeKeys, and ignores the other set whatever it holds.
constexpr std::uint32_t kOpNodeKeys = bit(kVectorInputs) | bit(kVectorOutputs);
constexpr std::uint32_t kDataNodeKeys = bit(kIsInput) | bit(kPersists) | bit(kLifetimeExtra);
constexpr std::uint32_t kCommonNodeKeys = all_of(kNodeKeys) & ~kOpNodeKeys & ~kDataNodeKeys;

constexpr std::array<std::string_view, 4> kEdgeKeys = {"src", "dst", "latency", "kind"};

void read_node(Field& f, std::size_t key, ModelNode& n, std::uint32_t& bad) {
    switch (static_cast<NodeKey>(key)) {
        case kId: n.id = f.integer(); return;
        case kIsOp: n.is_op = f.boolean(); return;
        case kCat: n.cat = f.string(); return;
        case kOp: n.op = f.string(); return;
        case kLatency: n.latency = f.integer(); return;
        case kDuration: n.duration = f.integer(); return;
        case kLanes: n.lanes = f.integer(); return;
        case kUnit: n.unit = parse_unit(f.string()); return;
        case kConfig: n.config = f.integer(); return;
        case kPreds: n.preds = f.ints(); return;
        case kSuccs: n.succs = f.ints(); return;
        default: break;
    }
    // Whether the node needs the field depends on is_op, which may come
    // later: a mistyped value is remembered, not thrown.
    bool ok = false;
    switch (static_cast<NodeKey>(key)) {
        case kVectorInputs: ok = f.try_ints(n.vector_inputs); break;
        case kVectorOutputs: ok = f.try_ints(n.vector_outputs); break;
        case kLifetimeExtra:
            if (const std::optional<int> v = f.try_int()) {
                n.lifetime_extra = *v;
                ok = true;
            }
            break;
        default: {
            const std::optional<bool> v = f.try_bool();
            if (v) (key == kIsInput ? n.is_input : n.persists) = *v;
            ok = v.has_value();
        }
    }
    if (!ok) bad |= bit(key);
}

/// Check one node once its object closes (the fields every node needs
/// are checked already) and drop the fields its kind does not read.
void finish_node(ModelNode& n, std::uint32_t seen, std::uint32_t bad, std::size_t index) {
    require(seen & ~bad, n.is_op ? kOpNodeKeys : kDataNodeKeys, kNodeKeys, "node");
    const ModelNode defaults;
    if (n.is_op) {
        n.is_input = defaults.is_input;
        n.persists = defaults.persists;
        n.lifetime_extra = defaults.lifetime_extra;
    } else {
        n.vector_inputs.clear();
        n.vector_outputs.clear();
    }
    if (n.id != static_cast<int>(index)) {
        throw Error("kernel model JSON: node ids must be dense and in order");
    }
}

void read_model_field(Field& f, std::size_t key, KernelModel& m) {
    switch (static_cast<ModelKey>(key)) {
        case kName: m.name = f.string(); return;
        case kGeometry: {
            int* const dst[] = {&m.geometry.banks, &m.geometry.banks_per_page,
                                &m.geometry.lines};
            f.object(kGeometryKeys, "geometry", all_of(kGeometryKeys),
                     [&](Field& g, std::size_t i) { *dst[i] = g.positive(); });
            return;
        }
        case kCaps: {
            int* const dst[] = {&m.caps.vector_lanes,     &m.caps.scalar_units,
                                &m.caps.index_merge_units, &m.caps.max_vector_reads,
                                &m.caps.max_vector_writes, &m.caps.reconfig_cycles};
            f.object(kCapsKeys, "caps", all_of(kCapsKeys), [&](Field& c, std::size_t i) {
                *dst[i] = i == 0 ? c.positive() : c.integer();  // vector_lanes > 0
            });
            return;
        }
        case kNumSlots: m.num_slots = f.integer(); return;
        case kHorizon: m.horizon = f.integer(); return;
        case kCriticalPath: m.critical_path = f.integer(); return;
        case kMemoryAllocation: m.memory_allocation = f.boolean(); return;
        case kThreePhaseSearch: m.three_phase_search = f.boolean(); return;
        case kEnforcePortLimits: m.enforce_port_limits = f.boolean(); return;
        case kLifetimeIncludesLastRead: m.lifetime_includes_last_read = f.boolean(); return;
        case kConfigKeys: f.array([&] { m.config_keys.push_back(f.string()); }); return;
        case kOps: m.ops = f.ints(); return;
        case kVectorOps: m.vector_ops = f.ints(); return;
        case kVdata: m.vdata = f.ints(); return;
        case kInputs: m.inputs = f.ints(); return;
        case kAsap: m.asap = f.ints(); return;
        case kAlap: m.alap = f.ints(); return;
        case kFixedStarts: m.fixed_starts = f.ints(); return;
        case kModulo: {
            ModuloWrap wrap;
            f.object(kModuloKeys, "modulo", all_of(kModuloKeys), [&](Field& w, std::size_t i) {
                switch (i) {
                    case 0: wrap.ii = w.integer(); return;
                    case 1: wrap.max_stage = w.integer(); return;
                    case 2: wrap.minimize_reconfigs = w.boolean(); return;
                    default: wrap.reconfig_budget = w.integer(); return;
                }
            });
            m.modulo = wrap;
            return;
        }
        case kNodes: {
            ModelNode n;
            std::uint32_t bad = 0;
            f.objects(
                kNodeKeys, "node", kCommonNodeKeys,
                [&](Field& nf, std::size_t i) { read_node(nf, i, n, bad); },
                [&](std::uint32_t seen) {
                    finish_node(n, seen, bad, m.nodes.size());
                    m.nodes.push_back(std::move(n));
                    n = ModelNode{};
                    bad = 0;
                });
            return;
        }
        case kEdges: {
            ModelEdge e;
            f.objects(
                kEdgeKeys, "edge", all_of(kEdgeKeys),
                [&](Field& ef, std::size_t i) {
                    switch (i) {
                        case 0: e.src = ef.integer(); return;
                        case 1: e.dst = ef.integer(); return;
                        case 2: e.latency = ef.integer(); return;
                        default: e.kind = parse_edge_kind(ef.string()); return;
                    }
                },
                [&](std::uint32_t) { m.edges.push_back(e); });
            return;
        }
    }
}

}  // namespace

KernelModel from_json(json::Reader& in) {
    if (in.peek() != Value::Type::Object) throw Error("kernel model JSON: not an object");
    KernelModel m;
    const std::uint32_t seen = in.fields(kModelKeys, [&](std::size_t i) {
        Field f(in, kModelKeys[i], "model");
        read_model_field(f, i, m);
    });
    require(seen, all_of(kModelKeys) & ~kOptionalModelKeys, kModelKeys, "model");

    // Every node reference must name a node: the solver indexes by them.
    const int num_nodes = m.num_nodes();
    check_ids(m.ops, num_nodes, "ops");
    check_ids(m.vector_ops, num_nodes, "vector_ops");
    check_ids(m.vdata, num_nodes, "vdata");
    check_ids(m.inputs, num_nodes, "inputs");
    const int num_configs = static_cast<int>(m.config_keys.size());
    for (const ModelNode& n : m.nodes) {
        // The makespan lower bound indexes per-configuration tallies.
        if (n.is_op && n.unit == Unit::VectorCore) check_id(n.config, num_configs, "config");
        check_ids(n.preds, num_nodes, "preds");
        check_ids(n.succs, num_nodes, "succs");
        check_ids(n.vector_inputs, num_nodes, "vector_inputs");
        check_ids(n.vector_outputs, num_nodes, "vector_outputs");
    }
    // is_vector_data is not serialized; for data nodes it is equivalent to
    // vdata membership (lower_ir pushes exactly the VectorData nodes there).
    for (const int id : m.vdata) m.nodes[static_cast<std::size_t>(id)].is_vector_data = true;
    for (const ModelEdge& e : m.edges) {
        check_id(e.src, num_nodes, "edge");
        check_id(e.dst, num_nodes, "edge");
    }

    const auto n = static_cast<std::size_t>(num_nodes);
    if (m.asap.size() != n || m.alap.size() != n ||
        (!m.fixed_starts.empty() && m.fixed_starts.size() != n)) {
        throw Error("kernel model JSON: per-node array size mismatch");
    }
    return m;
}

KernelModel from_json(const std::string& text) {
    json::Reader in(text);
    KernelModel m = from_json(in);
    in.finish();
    return m;
}

std::uint64_t canonical_hash(std::string_view canonical) {
    // FNV-1a, 64-bit: stable across platforms and runs, no seed.
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : canonical) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t canonical_hash(const KernelModel& m) { return canonical_hash(to_json(m)); }

}  // namespace revec::model
