#include "revec/model/json.hpp"

#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "revec/support/assert.hpp"

namespace revec::model {

namespace {

void append_escaped(std::ostringstream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    os << buf;
                } else {
                    os << c;
                }
        }
    }
    os << '"';
}

void append_ints(std::ostringstream& os, const std::vector<int>& xs) {
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
    std::ostringstream os;
    os << "{\n";
    os << "  \"name\": ";
    append_escaped(os, m.name);
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
        append_escaped(os, m.config_keys[i]);
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
    if (!m.frozen_starts.empty()) {
        os << "  \"frozen_starts\": ";
        append_ints(os, m.frozen_starts);
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
        append_escaped(os, n.cat);
        os << ", \"op\": ";
        append_escaped(os, n.op);
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
    return os.str();
}

void save_json(const KernelModel& m, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw Error("cannot write model dump to " + path);
    out << to_json(m);
    if (!out) throw Error("failed writing model dump to " + path);
}

namespace {

using json::Value;

[[noreturn]] void bad_field(const std::string& key, const char* context) {
    throw Error("kernel model JSON: missing or mistyped field '" + key + "' (" + context +
                ")");
}

const Value& require(const Value& obj, const std::string& key, Value::Type type,
                     const char* context) {
    const Value* v = obj.find(key);
    if (v == nullptr || !v->is(type)) bad_field(key, context);
    return *v;
}

/// A JSON number as an int; numbers outside the int range (or NaN) are
/// rejected instead of cast, which would be undefined behaviour.
int to_int(double v, const std::string& key, const char* context) {
    if (!(v >= INT_MIN && v <= INT_MAX)) bad_field(key, context);
    return static_cast<int>(v);
}

int get_int(const Value& obj, const std::string& key, const char* context) {
    return to_int(require(obj, key, Value::Type::Number, context).number, key, context);
}

int get_positive_int(const Value& obj, const std::string& key, const char* context) {
    const int v = get_int(obj, key, context);
    if (v <= 0) {
        throw Error("kernel model JSON: '" + key + "' (" + context + ") must be positive");
    }
    return v;
}

bool get_bool(const Value& obj, const std::string& key, const char* context) {
    return require(obj, key, Value::Type::Bool, context).boolean;
}

std::vector<int> get_ints(const Value& obj, const std::string& key, const char* context) {
    const Value& arr = require(obj, key, Value::Type::Array, context);
    std::vector<int> out;
    out.reserve(arr.array.size());
    for (const Value& v : arr.array) {
        if (!v.is(Value::Type::Number)) bad_field(key, context);
        out.push_back(to_int(v.number, key, context));
    }
    return out;
}

Unit parse_unit(const std::string& s) {
    if (s == "vector_core") return Unit::VectorCore;
    if (s == "scalar") return Unit::Scalar;
    if (s == "index_merge") return Unit::IndexMerge;
    if (s == "none") return Unit::None;
    throw Error("kernel model JSON: unknown unit '" + s + "'");
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

}  // namespace

KernelModel from_json(const json::Value& doc) {
    if (!doc.is(Value::Type::Object)) throw Error("kernel model JSON: not an object");
    KernelModel m;
    m.name = require(doc, "name", Value::Type::String, "model").str;

    const Value& geo = require(doc, "geometry", Value::Type::Object, "model");
    m.geometry.banks = get_positive_int(geo, "banks", "geometry");
    m.geometry.banks_per_page = get_positive_int(geo, "banks_per_page", "geometry");
    m.geometry.lines = get_positive_int(geo, "lines", "geometry");

    const Value& caps = require(doc, "caps", Value::Type::Object, "model");
    m.caps.vector_lanes = get_positive_int(caps, "vector_lanes", "caps");
    m.caps.scalar_units = get_int(caps, "scalar_units", "caps");
    m.caps.index_merge_units = get_int(caps, "index_merge_units", "caps");
    m.caps.max_vector_reads = get_int(caps, "max_vector_reads", "caps");
    m.caps.max_vector_writes = get_int(caps, "max_vector_writes", "caps");
    m.caps.reconfig_cycles = get_int(caps, "reconfig_cycles", "caps");

    m.num_slots = get_int(doc, "num_slots", "model");
    m.horizon = get_int(doc, "horizon", "model");
    m.critical_path = get_int(doc, "critical_path", "model");
    m.memory_allocation = get_bool(doc, "memory_allocation", "model");
    m.three_phase_search = get_bool(doc, "three_phase_search", "model");
    m.enforce_port_limits = get_bool(doc, "enforce_port_limits", "model");
    m.lifetime_includes_last_read = get_bool(doc, "lifetime_includes_last_read", "model");

    const Value& keys = require(doc, "config_keys", Value::Type::Array, "model");
    for (const Value& k : keys.array) {
        if (!k.is(Value::Type::String)) bad_field("config_keys", "model");
        m.config_keys.push_back(k.str);
    }

    m.ops = get_ints(doc, "ops", "model");
    m.vector_ops = get_ints(doc, "vector_ops", "model");
    m.vdata = get_ints(doc, "vdata", "model");
    m.inputs = get_ints(doc, "inputs", "model");
    m.asap = get_ints(doc, "asap", "model");
    m.alap = get_ints(doc, "alap", "model");

    if (doc.find("fixed_starts") != nullptr) {
        m.fixed_starts = get_ints(doc, "fixed_starts", "model");
    }
    if (doc.find("frozen_starts") != nullptr) {
        m.frozen_starts = get_ints(doc, "frozen_starts", "model");
    }
    if (const Value* mod = doc.find("modulo"); mod != nullptr) {
        if (!mod->is(Value::Type::Object)) bad_field("modulo", "model");
        ModuloWrap wrap;
        wrap.ii = get_int(*mod, "ii", "modulo");
        wrap.max_stage = get_int(*mod, "max_stage", "modulo");
        wrap.minimize_reconfigs = get_bool(*mod, "minimize_reconfigs", "modulo");
        wrap.reconfig_budget = get_int(*mod, "reconfig_budget", "modulo");
        m.modulo = wrap;
    }

    const Value& nodes = require(doc, "nodes", Value::Type::Array, "model");
    m.nodes.reserve(nodes.array.size());
    for (const Value& nv : nodes.array) {
        if (!nv.is(Value::Type::Object)) bad_field("nodes", "model");
        ModelNode n;
        n.id = get_int(nv, "id", "node");
        n.is_op = get_bool(nv, "is_op", "node");
        n.cat = require(nv, "cat", Value::Type::String, "node").str;
        n.op = require(nv, "op", Value::Type::String, "node").str;
        n.latency = get_int(nv, "latency", "node");
        n.duration = get_int(nv, "duration", "node");
        n.lanes = get_int(nv, "lanes", "node");
        n.unit = parse_unit(require(nv, "unit", Value::Type::String, "node").str);
        n.config = get_int(nv, "config", "node");
        n.preds = get_ints(nv, "preds", "node");
        n.succs = get_ints(nv, "succs", "node");
        if (n.is_op) {
            n.vector_inputs = get_ints(nv, "vector_inputs", "node");
            n.vector_outputs = get_ints(nv, "vector_outputs", "node");
        } else {
            n.is_input = get_bool(nv, "is_input", "node");
            n.persists = get_bool(nv, "persists", "node");
            n.lifetime_extra = get_int(nv, "lifetime_extra", "node");
        }
        if (n.id != static_cast<int>(m.nodes.size())) {
            throw Error("kernel model JSON: node ids must be dense and in order");
        }
        m.nodes.push_back(std::move(n));
    }
    // Every node reference must name a node: the solver indexes by them.
    const int num_nodes = m.num_nodes();
    check_ids(m.ops, num_nodes, "ops");
    check_ids(m.vector_ops, num_nodes, "vector_ops");
    check_ids(m.vdata, num_nodes, "vdata");
    check_ids(m.inputs, num_nodes, "inputs");
    for (const ModelNode& n : m.nodes) {
        check_ids(n.preds, num_nodes, "preds");
        check_ids(n.succs, num_nodes, "succs");
        check_ids(n.vector_inputs, num_nodes, "vector_inputs");
        check_ids(n.vector_outputs, num_nodes, "vector_outputs");
    }
    // is_vector_data is not serialized; for data nodes it is equivalent to
    // vdata membership (lower_ir pushes exactly the VectorData nodes there).
    for (const int id : m.vdata) m.nodes[static_cast<std::size_t>(id)].is_vector_data = true;

    const Value& edges = require(doc, "edges", Value::Type::Array, "model");
    m.edges.reserve(edges.array.size());
    for (const Value& ev : edges.array) {
        if (!ev.is(Value::Type::Object)) bad_field("edges", "model");
        ModelEdge e;
        e.src = get_int(ev, "src", "edge");
        e.dst = get_int(ev, "dst", "edge");
        check_id(e.src, num_nodes, "edge");
        check_id(e.dst, num_nodes, "edge");
        e.latency = get_int(ev, "latency", "edge");
        const std::string& kind = require(ev, "kind", Value::Type::String, "edge").str;
        if (kind == "data_produce") {
            e.kind = EdgeKind::DataProduce;
        } else if (kind == "precedence") {
            e.kind = EdgeKind::Precedence;
        } else {
            throw Error("kernel model JSON: unknown edge kind '" + kind + "'");
        }
        m.edges.push_back(e);
    }

    const auto n = static_cast<std::size_t>(m.num_nodes());
    if (m.asap.size() != n || m.alap.size() != n ||
        (!m.fixed_starts.empty() && m.fixed_starts.size() != n) ||
        (!m.frozen_starts.empty() && m.frozen_starts.size() != n)) {
        throw Error("kernel model JSON: per-node array size mismatch");
    }
    return m;
}

KernelModel from_json(const std::string& text) {
    return from_json(json::parse(text));
}

std::uint64_t canonical_hash(const KernelModel& m) {
    const std::string bytes = to_json(m);
    // FNV-1a, 64-bit: stable across platforms and runs, no seed.
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

}  // namespace revec::model
