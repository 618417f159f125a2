#include "revec/support/json.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "revec/support/assert.hpp"

namespace revec {
namespace {

using json::Value;

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(json::parse("null").is(Value::Type::Null));
    EXPECT_TRUE(json::parse("true").boolean);
    EXPECT_FALSE(json::parse("false").boolean);
    EXPECT_DOUBLE_EQ(json::parse("-17").number, -17.0);
    EXPECT_DOUBLE_EQ(json::parse("2.5e3").number, 2500.0);
    EXPECT_EQ(json::parse("\"a\\nb\"").str, "a\nb");
}

TEST(Json, ObjectPreservesInsertionOrder) {
    const Value v = json::parse(R"({"b": 1, "a": 2, "c": 3})");
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_EQ(v.object[0].first, "b");
    EXPECT_EQ(v.object[1].first, "a");
    EXPECT_EQ(v.object[2].first, "c");
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("a")->number, 2.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_THROW(json::parse("{"), Error);
    EXPECT_THROW(json::parse("[1, 2"), Error);
    EXPECT_THROW(json::parse("\"unterminated"), Error);
    EXPECT_THROW(json::parse("1 2"), Error);
    EXPECT_THROW(json::parse("nul"), Error);
    EXPECT_THROW(json::parse(""), Error);
    // A number token is read whole and follows RFC 8259, or the document
    // is rejected: no prefix of it is accepted with the rest dropped.
    for (const char* bad : {"[1-2]", "[1.2.3]", "[3e]", "[+5]", "[01]", "[1.]", "[.5]",
                            "[-]", "[1e+]", "[inf]", "[-nan]", "[0x10]", "[1e999]"}) {
        EXPECT_THROW(json::parse(bad), Error) << bad;
    }
    EXPECT_THROW(json::parse(std::string(100000, '[')), Error);  // nesting bound
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    EXPECT_NO_THROW(json::parse(nested(256)));
    EXPECT_THROW(json::parse(nested(257)), Error);
}

TEST(JsonReader, FieldsTakesTheFirstOfDuplicateKeysAndSkipsUnknownOnes) {
    static constexpr std::array<std::string_view, 2> kKeys = {"a", "b"};
    json::Reader in(R"({"b": [1, {"x": null}], "z": {"q": [true]}, "a": 7, "a": "late"})");
    double a = 0;
    std::string b;
    const std::uint32_t seen = in.fields(kKeys, [&](std::size_t i) {
        if (i == 0) {
            a = in.number();
        } else {
            b = json::to_compact_string(in.value());
        }
    });
    in.finish();
    EXPECT_EQ(seen, 3u);
    EXPECT_DOUBLE_EQ(a, 7.0);
    EXPECT_EQ(b, R"([1,{"x":null}])");
}

TEST(JsonReader, EscapedKeysAreDecoded) {
    json::Reader in(R"({"a\u0062": 1, "\u0063": 2})");
    std::string keys;
    in.object([&](std::string_view key) {
        keys.append(key).push_back(';');
        in.skip();
    });
    EXPECT_EQ(keys, "ab;c;");
}

TEST(JsonReader, SkipChecksSyntaxAndTheNestingBound) {
    for (const char* bad : {"[1,]", "{\"a\":}", "[1.]", "\"\\x\"", "[tru]", "{\"a\" 1}"}) {
        json::Reader in(bad);
        EXPECT_THROW(in.skip(), Error) << bad;
    }
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    const std::string deep_text = nested(256);
    json::Reader deep(deep_text);
    EXPECT_NO_THROW(deep.skip());
    const std::string too_deep_text = nested(257);
    json::Reader too_deep(too_deep_text);
    EXPECT_THROW(too_deep.skip(), Error);
}

TEST(JsonReader, PeekNamesTheNextValueWithoutConsumingIt) {
    json::Reader in(R"( [{}, [], "s", true, null, -1] )");
    std::vector<Value::Type> types;
    in.array([&] {
        types.push_back(in.peek());
        in.skip();
    });
    in.finish();
    const std::vector<Value::Type> expected = {Value::Type::Object, Value::Type::Array,
                                               Value::Type::String, Value::Type::Bool,
                                               Value::Type::Null,   Value::Type::Number};
    EXPECT_EQ(types, expected);
}

TEST(Json, ParsesEveryNumberForm) {
    EXPECT_DOUBLE_EQ(json::parse("0").number, 0.0);
    EXPECT_DOUBLE_EQ(json::parse("-0.25").number, -0.25);
    EXPECT_DOUBLE_EQ(json::parse("1E2").number, 100.0);
    EXPECT_DOUBLE_EQ(json::parse("1e-2").number, 0.01);
    EXPECT_DOUBLE_EQ(json::parse("7e+1").number, 70.0);
    EXPECT_TRUE(std::signbit(json::parse("-0").number));
    // An integer beyond a double's 53-bit mantissa reads as the nearest double.
    EXPECT_DOUBLE_EQ(json::parse("-123456789012345678").number, -123456789012345678.0);
    const Value v = json::parse(" [ 1 ,\t-2 ,\r\n3.5 ] ");
    ASSERT_EQ(v.array.size(), 3u);
    EXPECT_DOUBLE_EQ(v.array[1].number, -2.0);
    EXPECT_DOUBLE_EQ(v.array[2].number, 3.5);
}

TEST(Json, CompactRoundTripIsStable) {
    const std::string doc =
        R"({"name":"k","xs":[1,2,3],"flag":true,"nested":{"a":null,"b":"x\ty"}})";
    const std::string once = json::to_compact_string(json::parse(doc));
    EXPECT_EQ(once, doc);
    EXPECT_EQ(json::to_compact_string(json::parse(once)), once);
}

TEST(Json, CompactWritesIntegersWithoutDecimalPoint) {
    Value v;
    v.type = Value::Type::Number;
    v.number = 42.0;
    EXPECT_EQ(json::to_compact_string(v), "42");
    v.number = -3.0;
    EXPECT_EQ(json::to_compact_string(v), "-3");
    v.number = 0.5;
    EXPECT_EQ(json::to_compact_string(v), "0.5");
}

TEST(Json, EscapesControlCharactersOnWrite) {
    Value v;
    v.type = Value::Type::String;
    v.str = "a\"b\\c\nd\x01";
    EXPECT_EQ(json::to_compact_string(v), "\"a\\\"b\\\\c\\nd\\u0001\"");
    v.str = "\r\x1f";  // the canonical model form: \u00XX for all but \n and \t
    EXPECT_EQ(json::to_compact_string(v), "\"\\u000d\\u001f\"");
}

TEST(Json, WriterAppendsIntegersOfEveryWidth) {
    json::Writer w;
    w << "x" << ':' << -12 << ',' << std::int64_t{-9223372036854775807 - 1} << ','
      << std::uint32_t{4294967295u} << ',' << 0;
    EXPECT_EQ(w.take(), "x:-12,-9223372036854775808,4294967295,0");
}

// A bool or a floating-point value would otherwise convert to char and
// append one raw byte; the Writer refuses them at compile time.
template <typename T>
concept Writable = requires(json::Writer& w, T v) { w << v; };
static_assert(Writable<int> && Writable<char> && Writable<std::uint64_t>);
static_assert(Writable<const char*> && Writable<std::string_view>);
static_assert(!Writable<bool> && !Writable<double> && !Writable<float>);

}  // namespace
}  // namespace revec
