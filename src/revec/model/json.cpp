#include "revec/model/json.hpp"

#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <fstream>

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

    if (!m.fixed_starts.empty()) {
        os << "  \"fixed_starts\": ";
        append_ints(os, m.fixed_starts);
        os << ",\n";
    }
    if (m.modulo.has_value()) {
        os << "  \"modulo\": {\"ii\": " << m.modulo->ii
           << ", \"minimize_reconfigs\": " << bool_name(m.modulo->minimize_reconfigs)
           << ", \"reconfig_budget\": " << m.modulo->reconfig_budget << "},\n";
    }

    os << "  \"nodes\": [\n";
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
        const ModelNode& n = m.nodes[i];
        os << "    {\"id\": " << n.id << ", \"cat\": ";
        os.quoted(ir::cat_name(n.cat));
        os << ", \"op\": ";
        os.quoted(n.op);
        os << ", \"latency\": " << n.latency << ", \"duration\": " << n.duration
           << ", \"lanes\": " << n.lanes << ", \"unit\": \"" << unit_name(n.unit)
           << "\", \"config\": " << n.config << ", \"preds\": ";
        append_ints(os, n.preds);
        os << ", \"persists\": " << bool_name(n.persists) << "}"
           << (i + 1 < m.nodes.size() ? "," : "") << "\n";
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

/// The value of one model field, read straight off the reader: its key and
/// context name only the error messages. Every read that returns consumes
/// the value.
class Field {
public:
    Field(json::Reader& in, std::string_view key, const char* context)
        : in_(in), key_(key), context_(context) {}

    [[noreturn]] void bad() const { bad_field(key_, context_); }

    /// The value as an int. Numbers outside the int range are rejected
    /// instead of cast, which would be undefined behaviour, and so are
    /// fractions, which a cast would silently truncate.
    int integer() {
        if (in_.peek() != Value::Type::Number) bad();
        const double v = in_.number();
        if (!(v >= INT_MIN && v <= INT_MAX) || v != std::trunc(v)) bad();
        return static_cast<int>(v);
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
        if (in_.peek() != Value::Type::Bool) bad();
        return in_.boolean();
    }

    std::vector<int> ints() {
        std::vector<int> out;
        array([&] { out.push_back(integer()); });
        return out;
    }

    std::string string() {
        if (in_.peek() != Value::Type::String) bad();
        return in_.string();
    }

    /// An object whose fields are `names`, read in `context`:
    /// `on_field(Field&, i)` reads names[i], and the fields in `required`
    /// must all be there.
    template <std::size_t N, typename OnField>
    void object(const std::array<std::string_view, N>& names, const char* context,
                std::uint32_t required, OnField&& on_field) {
        if (in_.peek() != Value::Type::Object) bad();
        const std::uint32_t seen = in_.fields(names, [&](std::size_t i) {
            Field f(in_, names[i], context);
            on_field(f, i);
        });
        if (const std::uint32_t missing = required & ~seen; missing != 0) {
            bad_field(names[static_cast<std::size_t>(std::countr_zero(missing))], context);
        }
    }

    /// An array: `on_elem()` reads each element through this field, so a
    /// mistyped element names the array's key.
    template <typename OnElem>
    void array(OnElem&& on_elem) {
        if (in_.peek() != Value::Type::Array) bad();
        in_.array(on_elem);
    }

private:
    json::Reader& in_;
    std::string_view key_;
    const char* context_;
};

/// Mask of the first `n` fields.
constexpr std::uint32_t first(std::size_t n) {
    return static_cast<std::uint32_t>((std::uint64_t{1} << n) - 1);
}

Unit parse_unit(const std::string& s) {
    if (s == "vector_core") return Unit::VectorCore;
    if (s == "scalar") return Unit::Scalar;
    if (s == "index_merge") return Unit::IndexMerge;
    if (s == "none") return Unit::None;
    throw Error("kernel model JSON: unknown unit '" + s + "'");
}

// The primary fields of each object of the to_json shape, the required
// ones first; a field's index is its bit in the reader's seen mask. The derived fields an older dump carries are not
// named, so the reader skips them like any unknown key.

enum ModelKey : std::size_t {
    kName, kGeometry, kCaps, kNumSlots, kHorizon, kMemoryAllocation, kThreePhaseSearch,
    kEnforcePortLimits, kLifetimeIncludesLastRead, kConfigKeys, kNodes, kFixedStarts, kModulo,
};
constexpr std::array<std::string_view, 13> kModelKeys = {
    "name", "geometry", "caps", "num_slots", "horizon", "memory_allocation",
    "three_phase_search", "enforce_port_limits", "lifetime_includes_last_read",
    "config_keys", "nodes", "fixed_starts", "modulo",
};
constexpr std::uint32_t kRequiredModelKeys = first(kFixedStarts);

constexpr std::array<std::string_view, 3> kGeometryKeys = {"banks", "banks_per_page", "lines"};
constexpr std::array<std::string_view, 6> kCapsKeys = {
    "vector_lanes", "scalar_units", "index_merge_units", "max_vector_reads",
    "max_vector_writes", "reconfig_cycles",
};
constexpr std::array<std::string_view, 3> kModuloKeys = {"ii", "minimize_reconfigs",
                                                         "reconfig_budget"};

enum NodeKey : std::size_t {
    kId, kCat, kOp, kLatency, kDuration, kLanes, kUnit, kConfig, kPreds, kPersists,
};
constexpr std::array<std::string_view, 10> kNodeKeys = {
    "id", "cat", "op", "latency", "duration", "lanes", "unit", "config", "preds", "persists",
};
// persists may be left out (an older dump writes it on data nodes only):
// false, and derive() clears it on ops anyway.
constexpr std::uint32_t kRequiredNodeKeys = first(kPersists);

void read_node(Field& f, std::size_t key, ModelNode& n) {
    switch (static_cast<NodeKey>(key)) {
        case kId: n.id = f.integer(); return;
        case kCat: n.cat = ir::cat_from_name(f.string()); return;
        case kOp: n.op = f.string(); return;
        case kLatency: n.latency = f.integer(); return;
        case kDuration: n.duration = f.integer(); return;
        case kLanes: n.lanes = f.integer(); return;
        case kUnit: n.unit = parse_unit(f.string()); return;
        case kConfig: n.config = f.integer(); return;
        case kPreds: n.preds = f.ints(); return;
        case kPersists: n.persists = f.boolean(); return;
    }
}

void read_model_field(Field& f, std::size_t key, KernelModel& m) {
    switch (static_cast<ModelKey>(key)) {
        case kName: m.name = f.string(); return;
        case kGeometry: {
            int* const dst[] = {&m.geometry.banks, &m.geometry.banks_per_page,
                                &m.geometry.lines};
            f.object(kGeometryKeys, "geometry", first(kGeometryKeys.size()),
                     [&](Field& g, std::size_t i) { *dst[i] = g.positive(); });
            if (std::int64_t{m.geometry.banks} * m.geometry.lines > arch::kMaxSlots) {
                throw Error("kernel model JSON: geometry holds more than kMaxSlots slots");
            }
            return;
        }
        case kCaps: {
            int* const dst[] = {&m.caps.vector_lanes,     &m.caps.scalar_units,
                                &m.caps.index_merge_units, &m.caps.max_vector_reads,
                                &m.caps.max_vector_writes, &m.caps.reconfig_cycles};
            f.object(kCapsKeys, "caps", first(kCapsKeys.size()), [&](Field& c, std::size_t i) {
                *dst[i] = i == 0 ? c.positive() : c.integer();  // vector_lanes > 0
            });
            return;
        }
        case kNumSlots: m.num_slots = f.integer(); return;
        case kHorizon: m.horizon = f.integer(); return;
        case kMemoryAllocation: m.memory_allocation = f.boolean(); return;
        case kThreePhaseSearch: m.three_phase_search = f.boolean(); return;
        case kEnforcePortLimits: m.enforce_port_limits = f.boolean(); return;
        case kLifetimeIncludesLastRead: m.lifetime_includes_last_read = f.boolean(); return;
        case kConfigKeys: f.array([&] { m.config_keys.push_back(f.string()); }); return;
        case kNodes:
            f.array([&] {
                ModelNode n;
                f.object(kNodeKeys, "node", kRequiredNodeKeys,
                         [&](Field& nf, std::size_t i) { read_node(nf, i, n); });
                if (n.id != m.num_nodes()) {
                    throw Error("kernel model JSON: node ids must be dense and in order");
                }
                m.nodes.push_back(std::move(n));
            });
            return;
        case kFixedStarts: m.fixed_starts = f.ints(); return;
        case kModulo: {
            ModuloWrap wrap;
            f.object(kModuloKeys, "modulo", first(kModuloKeys.size()),
                     [&](Field& w, std::size_t i) {
                         switch (i) {
                             case 0: wrap.ii = w.integer(); return;
                             case 1: wrap.minimize_reconfigs = w.boolean(); return;
                             default: wrap.reconfig_budget = w.integer(); return;
                         }
                     });
            m.modulo = wrap;
            return;
        }
    }
}

}  // namespace

KernelModel from_json(json::Reader& in) {
    if (in.peek() != Value::Type::Object) throw Error("kernel model JSON: not an object");
    KernelModel m;
    Field whole(in, "model", "model");
    whole.object(kModelKeys, "model", kRequiredModelKeys,
                 [&](Field& f, std::size_t i) { read_model_field(f, i, m); });
    if (!m.fixed_starts.empty() && m.fixed_starts.size() != m.nodes.size()) {
        throw Error("kernel model JSON: per-node array size mismatch");
    }
    // The rule lower_for_schedule keeps, checked once the whole object is
    // read: memory_allocation may come after num_slots.
    if (m.memory_allocation && m.num_slots > m.geometry.slots()) {
        throw Error("kernel model JSON: num_slots exceeds the geometry's slots");
    }
    derive(m);
    // What the solver indexes by or packs into a cycle: every timing lies
    // within arch::kMaxLatency (an op's is at least one cycle; the list
    // scheduler's reservation window is sized from them), a vector-core
    // op's configuration names one of config_keys (the makespan lower
    // bound keeps per-configuration tallies), and an op fits the vector
    // core.
    const auto check_timing = [](const ModelNode& n, int cycles, const char* what) {
        const int least = n.is_op ? 1 : 0;
        if (cycles >= least && cycles <= arch::kMaxLatency) return;
        throw Error(std::string("kernel model JSON: ") + (n.is_op ? "op " : "data ") + what +
                    " outside [" + std::to_string(least) + ", kMaxLatency]");
    };
    const int num_configs = static_cast<int>(m.config_keys.size());
    for (const ModelNode& n : m.nodes) {
        check_timing(n, n.latency, "latency");
        check_timing(n, n.duration, "duration");
        if (!n.is_op) continue;
        if (n.unit == Unit::VectorCore && (n.config < 0 || n.config >= num_configs)) {
            throw Error("kernel model JSON: config id out of range");
        }
        if (n.lanes < 0 || n.lanes > m.caps.vector_lanes) {
            throw Error("kernel model JSON: op lanes outside [0, caps.vector_lanes]");
        }
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
