#include "revec/support/json.hpp"

#include <cmath>

#include "revec/support/assert.hpp"

namespace revec::json {

namespace {

/// Deeper documents are rejected instead of recursed into: the parser
/// recurses once per nesting level and the service parses whatever a
/// client sends. The documents this repository writes nest 4 levels deep.
constexpr std::size_t kMaxDepth = 256;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        Value v;
        parse_value(v);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing content after JSON value");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " + what);
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\n' && c != '\t' && c != '\r') return;
            ++pos_;
        }
    }

    char peek() {
        skip_ws();
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    /// Parse the value at pos_ into `out`, a default (null) Value.
    void parse_value(Value& out) {
        switch (peek()) {
            case '{': parse_object(out); return;
            case '[': parse_array(out); return;
            case '"':
                out.type = Value::Type::String;
                parse_string(out.str);
                return;
            case 't':
            case 'f': parse_bool(out); return;
            case 'n': parse_null(); return;
            default: parse_number(out); return;
        }
    }

    /// Open a container one level deeper. The parser recurses once per
    /// level, so the depth is bounded before it recurses.
    void enter() {
        if (depth_ == kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
        ++depth_;
    }

    // Each element is parsed in place into the back of its container: its
    // own children only append to the element's own vectors.

    void parse_object(Value& out) {
        expect('{');
        out.type = Value::Type::Object;
        if (peek() == '}') {
            ++pos_;
            return;
        }
        enter();
        while (true) {
            if (peek() != '"') fail("expected '\"'");
            auto& field = out.object.emplace_back();
            parse_string(field.first);
            expect(':');
            parse_value(field.second);
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            break;
        }
        --depth_;
    }

    void parse_array(Value& out) {
        expect('[');
        out.type = Value::Type::Array;
        if (peek() == ']') {
            ++pos_;
            return;
        }
        enter();
        while (true) {
            parse_value(out.array.emplace_back());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            break;
        }
        --depth_;
    }

    /// Append the string literal at pos_ (its opening quote already
    /// peeked) to `out`.
    void parse_string(std::string& out) {
        ++pos_;
        while (true) {
            // Copy the run up to the next quote or escape in one append.
            std::size_t end = pos_;
            while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') ++end;
            out.append(text_, pos_, end - pos_);
            pos_ = end;
            if (pos_ >= text_.size()) fail("unterminated string");
            if (text_[pos_++] == '"') return;
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'n': out.push_back('\n'); break;
                case 't': out.push_back('\t'); break;
                case 'r': out.push_back('\r'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    // ASCII-only documents: decode the low byte, reject the
                    // rest.
                    int code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code = code * 16;
                        if (h >= '0' && h <= '9') {
                            code += h - '0';
                        } else if (h >= 'a' && h <= 'f') {
                            code += 10 + (h - 'a');
                        } else if (h >= 'A' && h <= 'F') {
                            code += 10 + (h - 'A');
                        } else {
                            fail("bad hex digit in \\u escape");
                        }
                    }
                    if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
                    out.push_back(static_cast<char>(code));
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    void parse_bool(Value& out) {
        out.type = Value::Type::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            out.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            out.boolean = false;
            pos_ += 5;
        } else {
            fail("bad literal");
        }
    }

    void parse_null() {
        if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
        pos_ += 4;
    }

    /// Skip a run of digits; false when there was none.
    bool digits() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
        return pos_ > start;
    }

    /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. The token
    /// ends where the grammar does, so whatever follows a half-valid number
    /// ("1-2", "1.2.3", "01") is left for the caller to reject.
    void parse_number(Value& out) {
        const std::size_t start = pos_;
        if (at('-')) ++pos_;
        if (at('0')) {
            ++pos_;
        } else if (!digits()) {
            fail("expected a value");
        }
        if (at('.')) {
            ++pos_;
            if (!digits()) fail("malformed number");
        }
        if (at('e') || at('E')) {
            ++pos_;
            if (at('+') || at('-')) ++pos_;
            if (!digits()) fail("malformed number");
        }
        out.type = Value::Type::Number;
        const char* const end = text_.data() + pos_;
        const auto res = std::from_chars(text_.data() + start, end, out.number);
        if (res.ec != std::errc{} || res.ptr != end) fail("malformed number");
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

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

Value parse(std::string_view text) { return Parser(text).parse_document(); }

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
