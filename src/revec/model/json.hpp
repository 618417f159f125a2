// Deterministic JSON serialization of a KernelModel — --dump-model
// debugging dumps, the golden-file tests in tests/model, and the wire
// format of the revecd service protocol — plus the inverse parser and the
// content hash the schedule cache keys on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "revec/model/kernel_model.hpp"
#include "revec/support/json.hpp"

namespace revec::model {

/// Serialize the primary fields of `m` (kernel_model.hpp) as
/// pretty-printed JSON, one node per line; derive() rebuilds the rest.
/// Field order is fixed and every container is emitted in its stored
/// (node-id) order, so equal models produce byte-identical text.
std::string to_json(const KernelModel& m);

/// Write to_json(m) to `path`; throws revec::Error when the file cannot be
/// written.
void save_json(const KernelModel& m, const std::string& path);

/// Rebuild a KernelModel from the to_json shape, reading it straight off
/// the text (no json::Value tree), and finish it with derive(). Field
/// order in the input is irrelevant; unknown fields are skipped (their
/// syntax still checked) so the format can grow, and so are the derived
/// fields an older dump carries, which are recomputed, never trusted; of
/// duplicate keys the first wins. Throws revec::Error on malformed JSON,
/// on missing, mistyped or out-of-range fields, on what derive() cannot
/// finish, and on an op whose lanes lie outside [0, caps.vector_lanes].
/// Round-trip contract: from_json(to_json(m)) == m for every model derive()
/// finished.
KernelModel from_json(const std::string& text);
/// The same, for the model value at `in` (a field of a larger document);
/// leaves `in` just past it.
KernelModel from_json(json::Reader& in);

/// Stable 64-bit FNV-1a over the canonical to_json bytes. Two models hash
/// equal iff their canonical serializations are byte-identical, so the
/// hash is independent of the field order of any JSON a model was parsed
/// from — the content-address the revecd schedule cache keys on.
/// Equal to canonical_hash(to_json(m)).
std::uint64_t canonical_hash(const KernelModel& m);

/// FNV-1a of `canonical`, which must be a to_json output: for a caller that
/// already holds the canonical bytes and should not serialize twice.
std::uint64_t canonical_hash(std::string_view canonical);

}  // namespace revec::model
