#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace autobi {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

namespace {

// std::isspace in the "C" locale: space, \t, \n, \v, \f and \r.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

// Both parsers give exactly the verdicts and values of strtoll(base 10) and
// strtod on the trimmed text, which every caller (and the CSV type inference
// in particular) relies on. strtoll accepts [+-]?[0-9]+ within int64;
// strtod additionally takes fractions, exponents, hex floats, inf/nan, and
// fails with ERANGE on overflow and on subnormal or underflowing results.
bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty() || s.size() > 30) return false;
  const char* p = s.data();
  const char* const end = p + s.size();
  const bool negative = *p == '-';
  if (*p == '+' || *p == '-') ++p;
  if (p == end) return false;
  const uint64_t limit = negative ? uint64_t{1} << 63 : (uint64_t{1} << 63) - 1;
  uint64_t v = 0;
  for (; p != end; ++p) {
    const uint64_t digit = uint64_t(static_cast<unsigned char>(*p)) - '0';
    if (digit > 9 || v > (limit - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = !negative ? static_cast<int64_t>(v)
         : v == 0  ? 0
                   : -static_cast<int64_t>(v - 1) - 1;
  return true;
}

namespace {

constexpr double kExactPowersOf10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

// Clinger's fast path. For a plain decimal, [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?,
// whose digits form an integer m <= 2^53 and whose power of ten e is within
// +-22, both are exact doubles and m * 10^e (or m / 10^-e) is one correctly
// rounded operation: exactly strtod's value, never out of range. Returns
// false, leaving *out alone, for every other text.
bool ParseExactDecimal(std::string_view s, double* out) {
  const char* p = s.data();
  const char* const end = p + s.size();
  auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  const bool negative = *p == '-';
  if (*p == '+' || *p == '-') ++p;
  uint64_t m = 0;
  int digits = 0;
  int exponent = 0;
  auto take = [&](char c, int scale) {
    ++digits;
    if (digits <= 19) m = m * 10 + uint64_t(c - '0');  // No overflow.
    exponent += scale;
  };
  for (; p != end && is_digit(*p); ++p) take(*p, 0);
  if (p != end && *p == '.') {
    for (++p; p != end && is_digit(*p); ++p) take(*p, -1);
  }
  if (digits == 0 || digits > 19) return false;
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    const bool negative_exponent = p != end && *p == '-';
    if (p != end && (*p == '+' || *p == '-')) ++p;
    if (p == end || !is_digit(*p)) return false;
    int e = 0;
    for (; p != end && is_digit(*p); ++p) {
      if (e < 100000) e = e * 10 + (*p - '0');
    }
    exponent += negative_exponent ? -e : e;
  }
  if (p != end || m > (uint64_t{1} << 53) || exponent < -22 ||
      exponent > 22) {
    return false;
  }
  double v = static_cast<double>(m);
  v = exponent < 0 ? v / kExactPowersOf10[-exponent]
                   : v * kExactPowersOf10[exponent];
  *out = negative ? -v : v;
  return true;
}

}  // namespace

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty() || s.size() > 60) return false;
  if (ParseExactDecimal(s, out)) return true;
  // Everything else: long mantissas, large exponents, hex floats, inf, nan.
  char buf[64];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace autobi
