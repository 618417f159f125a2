#include "revec/support/json.hpp"

#include <cmath>

#include "revec/support/assert.hpp"

namespace revec::json {

namespace {

/// Deeper documents are rejected instead of recursed into: the reader
/// recurses once per nesting level and the service reads whatever a
/// client sends. The documents this repository writes nest 4 levels deep.
constexpr std::size_t kMaxDepth = 256;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void Reader::fail(const std::string& what) const {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " + what);
}

void Reader::finish() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
}

bool Reader::open(char open, char close) {
    expect(open);
    if (next_char() == close) {
        ++pos_;
        return false;
    }
    // The reader recurses once per level, so the depth is bounded before
    // the caller recurses.
    if (depth_ == kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
    ++depth_;
    return true;
}

std::string_view Reader::key(std::string& scratch) {
    if (next_char() != '"') fail("expected '\"'");
    const std::size_t start = pos_ + 1;
    std::size_t end = start;
    while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') ++end;
    std::string_view k;
    if (end < text_.size() && text_[end] == '"') {
        k = text_.substr(start, end - start);
        pos_ = end + 1;
    } else {
        scratch.clear();
        read_string(&scratch);
        k = scratch;
    }
    expect(':');
    return k;
}

void Reader::read_string(std::string* out) {
    const std::string_view text = text_;
    std::size_t p = pos_ + 1;  // past the opening quote, already peeked
    const auto fail_at = [&](const char* what) {
        pos_ = p;
        fail(what);
    };
    while (true) {
        // Copy the run up to the next quote or escape in one append.
        std::size_t end = p;
        while (end < text.size() && text[end] != '"' && text[end] != '\\') ++end;
        if (out != nullptr) out->append(text, p, end - p);
        p = end;
        if (p >= text.size()) fail_at("unterminated string");
        if (text[p++] == '"') break;
        if (p >= text.size()) fail_at("unterminated escape");
        char c = 0;
        switch (text[p++]) {
            case '"': c = '"'; break;
            case '\\': c = '\\'; break;
            case '/': c = '/'; break;
            case 'n': c = '\n'; break;
            case 't': c = '\t'; break;
            case 'r': c = '\r'; break;
            case 'b': c = '\b'; break;
            case 'f': c = '\f'; break;
            case 'u': {
                if (p + 4 > text.size()) fail_at("truncated \\u escape");
                // ASCII-only documents: decode the low byte, reject the
                // rest.
                int code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[p++];
                    code = code * 16;
                    if (h >= '0' && h <= '9') {
                        code += h - '0';
                    } else if (h >= 'a' && h <= 'f') {
                        code += 10 + (h - 'a');
                    } else if (h >= 'A' && h <= 'F') {
                        code += 10 + (h - 'A');
                    } else {
                        fail_at("bad hex digit in \\u escape");
                    }
                }
                if (code > 0x7f) fail_at("non-ASCII \\u escape unsupported");
                c = static_cast<char>(code);
                break;
            }
            default: fail_at("unknown escape");
        }
        if (out != nullptr) out->push_back(c);
    }
    pos_ = p;
}

std::string Reader::string() {
    if (next_char() != '"') fail("expected '\"'");
    std::string out;
    read_string(&out);
    return out;
}

void Reader::literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
}

bool Reader::boolean() {
    const bool value = next_char() == 't';
    literal(value ? "true" : "false");
    return value;
}

/// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. The token
/// ends where the grammar does, so whatever follows a half-valid number
/// ("1-2", "1.2.3", "01") is left for the caller to reject.
double Reader::number() {
    next_char();
    const std::string_view text = text_;
    const std::size_t start = pos_;
    std::size_t p = start;
    const auto fail_at = [&](const char* what) {
        pos_ = p;
        fail(what);
    };
    const auto at = [&](char c) { return p < text.size() && text[p] == c; };
    const auto digits = [&] {
        const std::size_t from = p;
        while (p < text.size() && is_digit(text[p])) ++p;
        return p > from;
    };
    const bool negative = at('-');
    if (negative) ++p;
    const std::size_t int_start = p;
    std::uint64_t n = 0;  // the integer part's value, while it is exact
    if (at('0')) {
        ++p;
    } else {
        while (p < text.size() && is_digit(text[p])) {
            n = n * 10 + static_cast<unsigned>(text[p++] - '0');
        }
        if (p == int_start) fail_at("expected a value");
    }
    const std::size_t int_end = p;
    if (at('.')) {
        ++p;
        if (!digits()) fail_at("malformed number");
    }
    if (at('e') || at('E')) {
        ++p;
        if (at('+') || at('-')) ++p;
        if (!digits()) fail_at("malformed number");
    }
    pos_ = p;
    // An integer token of at most 15 digits is exact in a double, so its
    // digits are summed as they are scanned: the value from_chars would
    // give (-0 included), without the call. Every number the repository
    // writes takes this path.
    if (p == int_end && int_end - int_start <= 15) {
        const auto v = static_cast<double>(n);
        return negative ? -v : v;
    }
    double v = 0.0;
    const char* const end = text.data() + p;
    const auto res = std::from_chars(text.data() + start, end, v);
    if (res.ec != std::errc{} || res.ptr != end) fail("malformed number");
    return v;
}

void Reader::skip() {
    switch (peek()) {
        case Value::Type::Object: object([this](std::string_view) { skip(); }); return;
        case Value::Type::Array: array([this] { skip(); }); return;
        case Value::Type::String: read_string(nullptr); return;
        case Value::Type::Bool: boolean(); return;
        case Value::Type::Null: literal("null"); return;
        case Value::Type::Number: number(); return;
    }
}

/// Each element is read in place into the back of its container: its own
/// children only append to the element's own vectors.
void Reader::read_value(Value& out) {
    out.type = peek();
    switch (out.type) {
        case Value::Type::Object:
            object([&](std::string_view k) {
                auto& field = out.object.emplace_back(std::string(k), Value{});
                read_value(field.second);
            });
            return;
        case Value::Type::Array: array([&] { read_value(out.array.emplace_back()); }); return;
        case Value::Type::String: read_string(&out.str); return;
        case Value::Type::Bool: out.boolean = boolean(); return;
        case Value::Type::Null: literal("null"); return;
        case Value::Type::Number: out.number = number(); return;
    }
}

Value Reader::value() {
    Value v;
    read_value(v);
    return v;
}

namespace {

/// Integers round-trip as integers; everything else keeps a shortest-ish
/// double form. The repo's serializers only ever write integral numbers,
/// so the integer path is the one that matters for byte-determinism.
void append_number(Writer& out, double v) {
    if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e18) {
        out << static_cast<long long>(v);
        return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
    out << std::string_view(buf, static_cast<std::size_t>(res.ptr - buf));
}

}  // namespace

Value parse(std::string_view text) {
    Reader in(text);
    Value v = in.value();
    in.finish();
    return v;
}

Writer& Writer::quoted(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out_.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out_ += "\\\""; break;
            case '\\': out_ += "\\\\"; break;
            case '\n': out_ += "\\n"; break;
            case '\t': out_ += "\\t"; break;
            default:
                // Every other control character, '\r' included, as \u00XX:
                // the canonical model bytes, and so their hash, use this form.
                if (const auto u = static_cast<unsigned char>(c); u < 0x20) {
                    out_ += "\\u00";
                    out_.push_back(kHex[u >> 4]);
                    out_.push_back(kHex[u & 0xf]);
                } else {
                    out_.push_back(c);
                }
        }
    }
    out_.push_back('"');
    return *this;
}

void write_compact(const Value& v, Writer& out) {
    switch (v.type) {
        case Value::Type::Null: out << "null"; return;
        case Value::Type::Bool: out << (v.boolean ? "true" : "false"); return;
        case Value::Type::Number: append_number(out, v.number); return;
        case Value::Type::String: out.quoted(v.str); return;
        case Value::Type::Array: {
            out << '[';
            for (std::size_t i = 0; i < v.array.size(); ++i) {
                if (i > 0) out << ',';
                write_compact(v.array[i], out);
            }
            out << ']';
            return;
        }
        case Value::Type::Object: {
            out << '{';
            for (std::size_t i = 0; i < v.object.size(); ++i) {
                if (i > 0) out << ',';
                out.quoted(v.object[i].first) << ':';
                write_compact(v.object[i].second, out);
            }
            out << '}';
            return;
        }
    }
    REVEC_UNREACHABLE("bad json::Value::Type");
}

std::string to_compact_string(const Value& v) {
    Writer out;
    write_compact(v, out);
    return out.take();
}

}  // namespace revec::json
