// Small string helpers shared by the XML module, IR I/O, and the benchmark
// table printers. Deliberately minimal: only what the library actually uses.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace revec {

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// Parse a decimal integer; throws revec::Error on malformed input.
long long parse_int(std::string_view s);

/// Parse a floating-point number; throws revec::Error on malformed input.
double parse_double(std::string_view s);

/// Format a double with `prec` significant decimal digits after the point.
std::string format_fixed(double v, int prec);

/// Levenshtein edit distance (insertions, deletions, substitutions). Used
/// for "did you mean" suggestions on mistyped command-line flags.
std::size_t edit_distance(std::string_view a, std::string_view b);

/// The "did you mean" flag for a mistyped `arg`: the entry of `known`
/// nearest to arg's name (the part before any '='), the first on ties, if
/// it is within edit distance 2; else "".
std::string closest_flag(std::string_view arg, const std::vector<std::string>& known);

/// Shell-style glob match: '*' matches any run of characters (including
/// empty), '?' matches exactly one; everything else is literal. Used for
/// metric-name patterns in revec-stats diff tolerance rules.
bool glob_match(std::string_view pattern, std::string_view s);

}  // namespace revec
