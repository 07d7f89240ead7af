#ifndef AUTOBI_COMMON_STRINGS_H_
#define AUTOBI_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace autobi {

// Small string helpers shared across the library. These deliberately avoid
// locale dependence: all case folding is ASCII-only, which is what schema
// identifiers in BI models use in practice.

// ASCII lower-casing.
std::string ToLower(std::string_view s);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// Splits on any character in `delims`; empty pieces are dropped.
std::vector<std::string> Split(std::string_view s, std::string_view delims);

// Joins pieces with `sep`. (Named JoinStrings to avoid colliding with the
// core Join relationship type.)
std::string JoinStrings(const std::vector<std::string>& pieces, std::string_view sep);

// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Parses a string as int64/double. Returns false if the full string is not a
// valid number (leading/trailing spaces are tolerated). The verdicts and
// values are those of strtoll (base 10, at most 30 characters) and strtod
// (at most 60 characters, ERANGE = not a number) on the trimmed text; the
// CSV reader's type inference is defined by them.
bool ParseInt64(std::string_view s, int64_t* out);
bool ParseDouble(std::string_view s, double* out);

}  // namespace autobi

#endif  // AUTOBI_COMMON_STRINGS_H_
