// Minimal JSON value, recursive-descent parser, compact writer and string
// appender shared by the trace reader (obs/trace_read), the KernelModel
// (de)serializer (model/json), and the service protocol (svc/protocol).
// Only what those consumers need: objects, arrays, strings, numbers,
// booleans, null.
// Numbers are kept as doubles (every value the repo's serializers write
// fits a double exactly); object fields preserve insertion order so
// round-tripping is deterministic. No third-party dependency.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace revec::json {

struct Value {
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;  // insertion order

    /// First field named `key`, or nullptr. Linear scan: the documents this
    /// module handles have small objects.
    const Value* find(std::string_view key) const {
        for (const auto& [k, v] : object) {
            if (k == key) return &v;
        }
        return nullptr;
    }

    bool is(Type t) const { return type == t; }
};

/// Parse one complete RFC 8259 document. Throws revec::Error (with the
/// byte offset) on malformed input, including a number token that is not
/// read whole, and on trailing content.
Value parse(std::string_view text);

/// Append-only text buffer shared by the hand-rolled serializers: `<<`
/// appends text, single characters and integers (decimal, through
/// std::to_chars) to one std::string, with none of an ostream's locale or
/// formatting state.
class Writer {
public:
    Writer& operator<<(std::string_view s) {
        out_.append(s);
        return *this;
    }
    /// String literals: without this, the deleted bool overload below
    /// would take a `const char*` ahead of the string_view conversion.
    Writer& operator<<(const char* s) { return *this << std::string_view(s); }
    Writer& operator<<(char c) {
        out_.push_back(c);
        return *this;
    }
    /// Integers, in decimal. A char argument takes the overload above.
    template <typename Int>
        requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
    Writer& operator<<(Int v) {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof buf, v);
        out_.append(buf, static_cast<std::size_t>(res.ptr - buf));
        return *this;
    }
    /// Without these, a bool or a floating-point argument would convert to
    /// char and append one raw byte: write "true"/"false" or the number's
    /// text explicitly instead.
    Writer& operator<<(bool) = delete;
    Writer& operator<<(double) = delete;
    /// Append `s` as a quoted, escaped JSON string literal.
    Writer& quoted(std::string_view s);

    /// The text written so far, moved out; the writer is left empty.
    std::string take() { return std::move(out_); }

private:
    std::string out_;
};

/// Serialize `v` on a single line with no insignificant whitespace —
/// the framing the newline-delimited service protocol requires. Field
/// order is the stored (insertion) order, so parse -> write_compact is
/// deterministic.
void write_compact(const Value& v, Writer& out);
std::string to_compact_string(const Value& v);

}  // namespace revec::json
