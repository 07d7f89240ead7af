#include "serve/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace autobi {

Json Json::MakeBool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::MakeInt(int64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.int_number_ = true;
  j.int_ = v;
  j.double_ = static_cast<double>(v);
  return j;
}

Json Json::MakeDouble(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.int_number_ = false;
  j.double_ = v;
  j.int_ = static_cast<int64_t>(v);
  return j;
}

Json Json::MakeString(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::MakeArray() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::MakeObject() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::AsBool() const {
  AUTOBI_CHECK(type_ == Type::kBool);
  return bool_;
}

int64_t Json::AsInt() const {
  AUTOBI_CHECK(type_ == Type::kNumber);
  return int_number_ ? int_ : static_cast<int64_t>(double_);
}

double Json::AsDouble() const {
  AUTOBI_CHECK(type_ == Type::kNumber);
  return int_number_ ? static_cast<double>(int_) : double_;
}

const std::string& Json::AsString() const {
  AUTOBI_CHECK(type_ == Type::kString);
  return string_;
}

const Json& Json::at(size_t i) const {
  AUTOBI_CHECK(type_ == Type::kArray && i < array_.size());
  return array_[i];
}

Json& Json::Append(Json v) {
  AUTOBI_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(v));
  return array_.back();
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::Set(std::string key, Json value) {
  AUTOBI_CHECK(type_ == Type::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return object_.back().second;
}

StatusOr<std::string> Json::GetString(std::string_view key,
                                      std::string fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_string()) {
    return Status::InvalidInput(
        StrFormat("field '%.*s' must be a string", int(key.size()),
                  key.data()));
  }
  return v->AsString();
}

StatusOr<int64_t> Json::GetInt(std::string_view key, int64_t fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number()) {
    return Status::InvalidInput(StrFormat("field '%.*s' must be a number",
                                          int(key.size()), key.data()));
  }
  return v->AsInt();
}

StatusOr<double> Json::GetDouble(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number()) {
    return Status::InvalidInput(StrFormat("field '%.*s' must be a number",
                                          int(key.size()), key.data()));
  }
  return v->AsDouble();
}

StatusOr<bool> Json::GetBool(std::string_view key, bool fallback) const {
  const Json* v = Find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidInput(StrFormat("field '%.*s' must be a boolean",
                                          int(key.size()), key.data()));
  }
  return v->AsBool();
}

namespace {

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(raw);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Json::WriteTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber: {
      if (int_number_) {
        *out += StrFormat("%lld", static_cast<long long>(int_));
        return;
      }
      if (!std::isfinite(double_)) {
        // JSON has no Inf/NaN; null is the conventional lossy fallback.
        *out += "null";
        return;
      }
      std::string num = StrFormat("%.17g", double_);
      // Trim to the shortest round-trippable form for readable wire output.
      for (int prec = 1; prec < 17; ++prec) {
        std::string shorter = StrFormat("%.*g", prec, double_);
        if (std::strtod(shorter.c_str(), nullptr) == double_) {
          num = shorter;
          break;
        }
      }
      *out += num;
      return;
    }
    case Type::kString:
      AppendEscaped(string_, out);
      return;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].WriteTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendEscaped(object_[i].first, out);
        out->push_back(':');
        object_[i].second.WriteTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Write() const {
  std::string out;
  WriteTo(&out);
  return out;
}

namespace {

// Recursive-descent parser over untrusted bytes. Every failure path returns
// kInvalidInput with a byte offset; nothing throws, nothing reads past
// `end_`.
class Parser {
 public:
  explicit Parser(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  StatusOr<Json> Parse() {
    SkipWs();
    Json root;
    AUTOBI_RETURN_IF_ERROR(ParseValue(0, &root));
    SkipWs();
    if (p_ != end_) return Error("trailing bytes after JSON value");
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const char* message) const {
    return Status::InvalidInput(
        StrFormat("JSON parse error at byte %zu: %s", size_t(p_ - begin_),
                  message));
  }

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const char* q = p_;
    while (*lit != '\0') {
      if (q == end_ || *q != *lit) return false;
      ++q;
      ++lit;
    }
    p_ = q;
    return true;
  }

  Status ParseValue(int depth, Json* out) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (p_ == end_) return Error("unexpected end of input");
    switch (*p_) {
      case '{': return ParseObject(depth, out);
      case '[': return ParseArray(depth, out);
      case '"': {
        std::string s;
        AUTOBI_RETURN_IF_ERROR(ParseString(&s));
        *out = Json::MakeString(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = Json::MakeBool(true);
          return Status::Ok();
        }
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = Json::MakeBool(false);
          return Status::Ok();
        }
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = Json();
          return Status::Ok();
        }
        return Error("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(int depth, Json* out) {
    ++p_;  // '{'
    *out = Json::MakeObject();
    SkipWs();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Error("expected object key");
      std::string key;
      AUTOBI_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWs();
      Json value;
      AUTOBI_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
      out->Set(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(int depth, Json* out) {
    ++p_;  // '['
    *out = Json::MakeArray();
    SkipWs();
    if (Consume(']')) return Status::Ok();
    while (true) {
      SkipWs();
      Json value;
      AUTOBI_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
      out->Append(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseHex4(uint32_t* out) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      if (p_ == end_) return Error("truncated \\u escape");
      char c = *p_++;
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= uint32_t(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= uint32_t(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= uint32_t(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    *out = v;
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(char(cp));
    } else if (cp < 0x800) {
      out->push_back(char(0xC0 | (cp >> 6)));
      out->push_back(char(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(char(0xE0 | (cp >> 12)));
      out->push_back(char(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(char(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(char(0xF0 | (cp >> 18)));
      out->push_back(char(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(char(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(char(0x80 | (cp & 0x3F)));
    }
  }

  // True for the bytes that end a run of plain string bytes.
  static bool EndsRun(unsigned char c) {
    return c == '"' || c == '\\' || c < 0x20;
  }

  // True if any of the 8 bytes in `word` ends a run. Each test is the exact
  // "some byte is zero / below n" bit trick: a borrow can only flag extra
  // bytes beside a byte that really matches.
  static bool AnyEndsRun(uint64_t word) {
    constexpr uint64_t kOnes = 0x0101010101010101ULL;
    constexpr uint64_t kHighs = 0x8080808080808080ULL;
    auto has_zero = [](uint64_t v) { return (v - kOnes) & ~v & kHighs; };
    return (has_zero(word ^ (kOnes * '"')) | has_zero(word ^ (kOnes * '\\')) |
            ((word - kOnes * 0x20) & ~word & kHighs)) != 0;
  }

  Status ParseString(std::string* out) {
    ++p_;  // opening '"'
    out->clear();
    while (true) {
      // Append the run of plain bytes up to the next quote, backslash or
      // control byte in one go.
      const char* run = p_;
      while (end_ - p_ >= 8) {
        uint64_t word = 0;
        std::memcpy(&word, p_, sizeof(word));
        if (AnyEndsRun(word)) break;
        p_ += 8;
      }
      while (p_ != end_ && !EndsRun(static_cast<unsigned char>(*p_))) ++p_;
      out->append(run, size_t(p_ - run));
      if (p_ == end_) return Error("unterminated string");
      unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        return Status::Ok();
      }
      if (c < 0x20) return Error("raw control character in string");
      ++p_;  // '\\'
      if (p_ == end_) return Error("truncated escape");
      char esc = *p_++;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          AUTOBI_RETURN_IF_ERROR(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (p_ + 1 >= end_ || p_[0] != '\\' || p_[1] != 'u') {
              return Error("unpaired high surrogate");
            }
            p_ += 2;
            uint32_t lo = 0;
            AUTOBI_RETURN_IF_ERROR(ParseHex4(&lo));
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseNumber(Json* out) {
    const char* start = p_;
    if (Consume('-')) {
      // sign consumed
    }
    if (p_ == end_ || *p_ < '0' || *p_ > '9') {
      return Error("invalid number");
    }
    if (*p_ == '0') {
      ++p_;
    } else {
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    bool integral = true;
    if (p_ != end_ && *p_ == '.') {
      integral = false;
      ++p_;
      if (p_ == end_ || *p_ < '0' || *p_ > '9') {
        return Error("digits required after decimal point");
      }
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      integral = false;
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || *p_ < '0' || *p_ > '9') {
        return Error("digits required in exponent");
      }
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    std::string token(start, size_t(p_ - start));
    if (integral) {
      errno = 0;
      char* token_end = nullptr;
      long long v = std::strtoll(token.c_str(), &token_end, 10);
      if (errno == 0 && token_end == token.c_str() + token.size()) {
        *out = Json::MakeInt(v);
        return Status::Ok();
      }
      // Out of int64 range: fall through to the double representation.
    }
    errno = 0;
    char* token_end = nullptr;
    double d = std::strtod(token.c_str(), &token_end);
    if (token_end != token.c_str() + token.size()) {
      return Error("invalid number");
    }
    if (!std::isfinite(d)) return Error("number out of range");
    *out = Json::MakeDouble(d);
    return Status::Ok();
  }

  const char* begin_;
  const char* p_;
  const char* end_;
};

}  // namespace

StatusOr<Json> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace autobi
