#include "revec/support/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

#include "revec/support/assert.hpp"

namespace revec {

std::vector<std::string> split(std::string_view s, char sep) {
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (true) {
        const std::size_t pos = s.find(sep, begin);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(begin));
            return out;
        }
        out.emplace_back(s.substr(begin, pos - begin));
        begin = pos + 1;
    }
}

std::string_view trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
    return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

long long parse_int(std::string_view s) {
    s = trim(s);
    long long value = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc{} || ptr != s.data() + s.size()) {
        throw Error("malformed integer: '" + std::string(s) + "'");
    }
    return value;
}

double parse_double(std::string_view s) {
    s = trim(s);
    // std::from_chars for doubles is not available on all libstdc++ configs;
    // go through a bounded sscanf instead.
    const std::string buf(s);
    double value = 0;
    int consumed = 0;
    if (std::sscanf(buf.c_str(), "%lf%n", &value, &consumed) != 1 ||
        static_cast<std::size_t>(consumed) != buf.size()) {
        throw Error("malformed number: '" + buf + "'");
    }
    return value;
}

std::string format_fixed(double v, int prec) {
    REVEC_EXPECTS(prec >= 0 && prec <= 17);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
    // Two-row dynamic program; row[j] = distance between a[0..i) and b[0..j).
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];  // row[i-1][j-1]
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({subst, up + 1, row[j - 1] + 1});
            diag = up;
        }
    }
    return row[b.size()];
}

std::string closest_flag(std::string_view arg, const std::vector<std::string>& known) {
    const std::string_view name = arg.substr(0, arg.find('='));
    std::string best;
    std::size_t best_dist = 3;  // suggest only when plausibly a typo
    for (const std::string& flag : known) {
        const std::size_t d = edit_distance(name, flag);
        if (d < best_dist) {
            best_dist = d;
            best = flag;
        }
    }
    return best;
}

bool glob_match(std::string_view pattern, std::string_view s) {
    // Iterative matcher with single-star backtracking: on mismatch, retry
    // from the most recent '*' consuming one more character.
    std::size_t p = 0;
    std::size_t i = 0;
    std::size_t star = std::string_view::npos;  // position after the last '*'
    std::size_t mark = 0;                       // s position the star resumed at
    while (i < s.size()) {
        if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == s[i])) {
            ++p;
            ++i;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = ++p;
            mark = i;
        } else if (star != std::string_view::npos) {
            p = star;
            i = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') ++p;
    return p == pattern.size();
}

}  // namespace revec
