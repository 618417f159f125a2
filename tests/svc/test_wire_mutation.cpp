// Seeded single-byte mutations of real solve request lines against the
// wire reader (the first piece of a protocol fuzzer). Per mutated line:
// parse_request rejects every line the JSON grammar (json::parse) rejects,
// and accepts only lines the grammar accepts; every model it accepts
// round-trips to_json -> from_json -> to_json byte for byte; and nothing
// but revec::Error escapes either reader. The readers share one tokenizer
// and the round trip re-reads with the same from_json, so two oracles that
// do not go through from_json back them: an accepted model holds the
// values the line's tree holds, and it is well formed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "revec/apps/matmul.hpp"
#include "revec/apps/random_kernel.hpp"
#include "revec/ir/passes.hpp"
#include "revec/model/json.hpp"
#include "revec/sched/model.hpp"
#include "revec/support/assert.hpp"
#include "revec/support/json.hpp"
#include "revec/support/rng.hpp"
#include "revec/svc/protocol.hpp"

namespace revec::svc {
namespace {

std::string request_line(const ir::Graph& g) {
    Request req;
    req.kind = RequestKind::Solve;
    req.id = 17;
    req.rid = 0x0123456789abcdefull;
    req.deadline_ms = 1000;
    req.params.threads = 2;
    req.model = sched::lower_for_schedule(ir::merge_pipeline_ops(g), sched::ScheduleOptions{});
    return serialize_request(req);
}

/// Bytes an insertion or a replacement draws from half the time: the ones
/// that move the grammar or the schema; the other half are uniform.
constexpr std::string_view kStructural = "{}[],:\"\\ 0123456789-+.eEtfnu";

char mutant_byte(XorShift& rng) {
    if (rng.below(2) == 0) {
        return kStructural[static_cast<std::size_t>(rng.below(kStructural.size()))];
    }
    return static_cast<char>(rng.next() & 0xff);
}

/// The invariants every model from_json accepts must hold, checked without
/// it: dense node ids, node and configuration references in range,
/// per-node array sizes, positive geometry.
void expect_well_formed(const model::KernelModel& m, const std::string& line) {
    const int n = m.num_nodes();
    const auto in_range = [n](const std::vector<int>& ids) {
        return std::all_of(ids.begin(), ids.end(), [n](int id) { return id >= 0 && id < n; });
    };
    bool ok = m.asap.size() == m.nodes.size() && m.alap.size() == m.nodes.size() &&
              in_range(m.ops) && in_range(m.vector_ops) && in_range(m.vdata) &&
              in_range(m.inputs) && m.geometry.banks > 0 && m.geometry.banks_per_page > 0 &&
              m.geometry.lines > 0 && m.caps.vector_lanes > 0;
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
        const model::ModelNode& node = m.nodes[i];
        const bool vector_op = node.is_op && node.unit == model::Unit::VectorCore;
        ok = ok && node.id == static_cast<int>(i) && in_range(node.preds) &&
             in_range(node.succs) && in_range(node.vector_inputs) &&
             in_range(node.vector_outputs) &&
             (!vector_op ||
              (node.config >= 0 && node.config < static_cast<int>(m.config_keys.size())));
    }
    for (const model::ModelEdge& e : m.edges) ok = ok && in_range({e.src, e.dst});
    EXPECT_TRUE(ok) << "accepted a malformed model: " << line;
}

/// `line` with one byte flipped (one bit), replaced, inserted or deleted.
std::string mutate(const std::string& line, XorShift& rng) {
    std::string out = line;
    const auto at = static_cast<std::size_t>(rng.below(static_cast<int>(out.size())));
    switch (rng.below(4)) {
        case 0: out[at] = static_cast<char>(out[at] ^ (1 << rng.below(8))); break;
        case 1: out[at] = mutant_byte(rng); break;
        case 2: out.insert(at, 1, mutant_byte(rng)); break;
        default: out.erase(at, 1); break;
    }
    return out;
}

TEST(WireMutation, RequestReaderAgreesWithTheGrammarAndRoundTrips) {
    apps::RandomKernelOptions ko;
    ko.seed = 5;
    ko.num_ops = 12;
    const std::string lines[] = {request_line(apps::build_matmul()),
                                 request_line(apps::build_random_kernel(ko))};
    XorShift rng(20261018);
    int grammar_rejects = 0;
    int accepted_solves = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const std::string line = mutate(lines[trial % 2], rng);
        std::optional<json::Value> tree;
        try {
            tree = json::parse(line);
        } catch (const Error&) {
        }
        const bool grammar_ok = tree.has_value();
        std::optional<Request> req;
        try {
            req = parse_request(line);
        } catch (const Error&) {
        }
        grammar_rejects += grammar_ok ? 0 : 1;
        if (!req) continue;
        ASSERT_TRUE(grammar_ok) << "accepted a line json::parse rejects: " << line;
        if (req->kind != RequestKind::Solve) continue;
        ++accepted_solves;
        ASSERT_TRUE(req->model.has_value());
        const std::string canonical = model::to_json(*req->model);
        ASSERT_EQ(model::to_json(model::from_json(canonical)), canonical) << line;
        // A single byte cannot rename a model key without dropping a
        // required one, so the tree's model has the canonical keys in the
        // canonical order and its compact text is the canonical one: a
        // value the reader misread or accepted out of range shows here.
        const json::Value* tree_model = tree->find("model");
        ASSERT_NE(tree_model, nullptr);
        ASSERT_EQ(json::to_compact_string(*tree_model),
                  json::to_compact_string(json::parse(canonical)))
            << line;
        expect_well_formed(*req->model, line);
    }
    // Both branches ran: the mutations are neither all fatal nor all benign.
    EXPECT_GT(grammar_rejects, 100);
    EXPECT_GT(accepted_solves, 100);
}

}  // namespace
}  // namespace revec::svc
