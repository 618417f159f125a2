// Minimal JSON: a pull reader (the one tokenizer), a value tree built on
// it, a compact writer and a string appender, shared by the trace reader
// (obs/trace_read), the KernelModel (de)serializer (model/json), and the
// service protocol (svc/protocol). Only what those consumers need:
// objects, arrays, strings, numbers, booleans, null.
// Numbers are kept as doubles (every value the repo's serializers write
// fits a double exactly); object fields preserve insertion order so
// round-tripping is deterministic. No third-party dependency.
#pragma once

#include <array>
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

/// Pull cursor over one JSON text: each call reads the next value and
/// hands it to its consumer, so a reader that knows its schema (a kernel
/// model, a service request) builds no Value tree. Every read checks the
/// RFC 8259 grammar at the cursor and throws revec::Error (with the byte
/// offset) on malformed input; containers nest at most 256 levels. A
/// reader that meets a value of the wrong type checks peek() first and
/// reports its own error.
class Reader {
public:
    /// The reader keeps a view of `text`, which must outlive it: a
    /// temporary std::string is refused.
    explicit Reader(std::string_view text) : text_(text) {}
    explicit Reader(const char* text) : text_(text) {}
    explicit Reader(std::string&&) = delete;

    /// Type of the next value, not consumed. A byte that starts no value
    /// reads as Number, whose read then rejects it.
    Value::Type peek() {
        switch (next_char()) {
            case '{': return Value::Type::Object;
            case '[': return Value::Type::Array;
            case '"': return Value::Type::String;
            case 't':
            case 'f': return Value::Type::Bool;
            case 'n': return Value::Type::Null;
            default: return Value::Type::Number;
        }
    }

    /// Read an object: `on_key(std::string_view key)` runs once per field,
    /// in text order, and must consume the field's value through this
    /// reader. The key is valid until `on_key` returns.
    template <typename OnKey>
    void object(OnKey&& on_key);

    /// Read an object whose interesting keys are `names` (at most 32):
    /// `on_field(i)` runs for the first occurrence of `names[i]` and must
    /// consume its value; unknown keys and later duplicates are skipped
    /// (their syntax still checked). Returns the mask of the names seen,
    /// bit i for `names[i]`.
    template <std::size_t N, typename OnField>
    std::uint32_t fields(const std::array<std::string_view, N>& names, OnField&& on_field);

    /// Read an array: `on_elem()` runs once per element and must consume it.
    template <typename OnElem>
    void array(OnElem&& on_elem);

    double number();
    std::string string();
    bool boolean();
    /// Consume the next value of any type, building nothing.
    void skip();
    /// The next value as a tree.
    Value value();
    /// Require that only whitespace is left.
    void finish();

    /// Byte offset of the cursor in the text: after a peek(), the first
    /// byte of the next value; after a read, just past the value.
    std::size_t offset() const { return pos_; }
    /// Move the cursor forward to `offset` without reading the bytes in
    /// between: the caller vouches that they are one complete value that
    /// this reader would accept here (DESIGN §5i: how the service skips a
    /// model whose bytes its cache already holds).
    void seek(std::size_t offset) { pos_ = offset; }

private:
    // The helpers every token passes through are defined here, inline.

    [[noreturn]] void fail(const std::string& what) const;
    // The scanning loops run on a local copy of the cursor: a store to the
    // member could alias the text's bytes, so it would be reloaded per byte.
    void skip_ws() {
        std::size_t p = pos_;
        while (p < text_.size() &&
               (text_[p] == ' ' || text_[p] == '\n' || text_[p] == '\t' || text_[p] == '\r')) {
            ++p;
        }
        pos_ = p;
    }
    /// The next non-whitespace byte, not consumed.
    char next_char() {
        skip_ws();
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }
    void expect(char c) {
        if (next_char() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }
    /// Consume `open`; false (with an empty container consumed) when
    /// `close` follows at once, else one nesting level is entered.
    bool open(char open, char close);
    /// After an element: true past a ',', false past `close` (leaving the
    /// level entered by open()).
    bool more(char close) {
        if (next_char() == ',') {
            ++pos_;
            return true;
        }
        expect(close);
        --depth_;
        return false;
    }
    /// An object key and its ':'. A key without escapes is a view of the
    /// text; one with escapes is decoded into `scratch`.
    std::string_view key(std::string& scratch);
    /// The string literal at the cursor, decoded onto `out` (or checked and
    /// dropped when `out` is null).
    void read_string(std::string* out);
    void literal(std::string_view word);
    void read_value(Value& out);

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

template <typename OnKey>
void Reader::object(OnKey&& on_key) {
    if (!open('{', '}')) return;
    std::string scratch;
    do {
        on_key(key(scratch));
    } while (more('}'));
}

template <std::size_t N, typename OnField>
std::uint32_t Reader::fields(const std::array<std::string_view, N>& names,
                             OnField&& on_field) {
    static_assert(N <= 32, "the seen mask has 32 bits");
    std::uint32_t seen = 0;
    object([&](std::string_view key) {
        for (std::size_t i = 0; i < N; ++i) {
            if (names[i] != key) continue;
            if ((seen >> i & 1u) != 0) break;
            seen |= 1u << i;
            on_field(i);
            return;
        }
        skip();
    });
    return seen;
}

template <typename OnElem>
void Reader::array(OnElem&& on_elem) {
    if (!open('[', ']')) return;
    do {
        on_elem();
    } while (more(']'));
}

/// Parse one complete RFC 8259 document: Reader::value() plus finish().
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
