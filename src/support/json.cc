#include "support/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/logging.hh"

namespace nachos {

bool
JsonValue::boolean() const
{
    NACHOS_ASSERT(kind_ == Kind::Bool, "json value is not a bool");
    return bool_;
}

const std::string &
JsonValue::str() const
{
    NACHOS_ASSERT(kind_ == Kind::String, "json value is not a string");
    return str_;
}

bool
JsonValue::isU64() const
{
    if (kind_ != Kind::Number)
        return false;
    switch (rep_) {
      case NumRep::U64:
        return true;
      case NumRep::I64:
        return i64_ >= 0;
      case NumRep::Dbl:
        return dbl_ >= 0 && dbl_ < 18446744073709551616.0 &&
               dbl_ == std::floor(dbl_);
    }
    return false;
}

bool
JsonValue::isI64() const
{
    if (kind_ != Kind::Number)
        return false;
    switch (rep_) {
      case NumRep::U64:
        return u64_ <= static_cast<uint64_t>(INT64_MAX);
      case NumRep::I64:
        return true;
      case NumRep::Dbl:
        return dbl_ >= -9223372036854775808.0 &&
               dbl_ < 9223372036854775808.0 && dbl_ == std::floor(dbl_);
    }
    return false;
}

uint64_t
JsonValue::asU64() const
{
    NACHOS_ASSERT(isU64(), "json number is not a uint64");
    switch (rep_) {
      case NumRep::U64:
        return u64_;
      case NumRep::I64:
        return static_cast<uint64_t>(i64_);
      case NumRep::Dbl:
        return static_cast<uint64_t>(dbl_);
    }
    return 0;
}

int64_t
JsonValue::asI64() const
{
    NACHOS_ASSERT(isI64(), "json number is not an int64");
    switch (rep_) {
      case NumRep::U64:
        return static_cast<int64_t>(u64_);
      case NumRep::I64:
        return i64_;
      case NumRep::Dbl:
        return static_cast<int64_t>(dbl_);
    }
    return 0;
}

double
JsonValue::asDouble() const
{
    NACHOS_ASSERT(kind_ == Kind::Number, "json value is not a number");
    switch (rep_) {
      case NumRep::U64:
        return static_cast<double>(u64_);
      case NumRep::I64:
        return static_cast<double>(i64_);
      case NumRep::Dbl:
        return dbl_;
    }
    return 0;
}

const JsonValue &
JsonValue::at(size_t i) const
{
    NACHOS_ASSERT(kind_ == Kind::Array, "json value is not an array");
    NACHOS_ASSERT(i < items_.size(), "json array index out of range");
    return items_[i];
}

void
JsonValue::push(JsonValue v)
{
    NACHOS_ASSERT(kind_ == Kind::Array, "json value is not an array");
    items_.push_back(std::move(v));
}

void
JsonValue::set(std::string key, JsonValue v)
{
    NACHOS_ASSERT(kind_ == Kind::Object, "json value is not an object");
    for (auto &member : members_) {
        if (member.first == key) {
            member.second = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/**
 * In-place node mutation for the parser: assign a parsed value into an
 * existing JsonValue without releasing the buffers it already owns.
 * Containers keep their element slots (reassigned positionally) and
 * strings keep their capacity, so re-parsing a same-shaped document
 * into the same tree allocates nothing. Containers a node no longer
 * uses after a kind change are cleared so stale members/items can't
 * leak through size()/members().
 */
struct JsonParseAccess
{
    using Kind = JsonValue::Kind;
    using NumRep = JsonValue::NumRep;

    static void
    scalarize(JsonValue &v)
    {
        v.items_.clear();
        v.members_.clear();
        v.str_.clear();
    }

    static void
    setNull(JsonValue &v)
    {
        scalarize(v);
        v.kind_ = Kind::Null;
    }

    static void
    setBool(JsonValue &v, bool b)
    {
        scalarize(v);
        v.kind_ = Kind::Bool;
        v.bool_ = b;
    }

    static void
    setU64(JsonValue &v, uint64_t u)
    {
        scalarize(v);
        v.kind_ = Kind::Number;
        v.rep_ = NumRep::U64;
        v.u64_ = u;
    }

    static void
    setI64(JsonValue &v, int64_t i)
    {
        scalarize(v);
        v.kind_ = Kind::Number;
        v.rep_ = NumRep::I64;
        v.i64_ = i;
    }

    static void
    setDbl(JsonValue &v, double d)
    {
        scalarize(v);
        v.kind_ = Kind::Number;
        v.rep_ = NumRep::Dbl;
        v.dbl_ = d;
    }

    /** Turn the node into an (empty) string; returns its buffer. */
    static std::string &
    stringSlot(JsonValue &v)
    {
        v.items_.clear();
        v.members_.clear();
        v.kind_ = Kind::String;
        v.str_.clear();
        return v.str_;
    }

    static void
    toArray(JsonValue &v)
    {
        v.members_.clear();
        v.str_.clear();
        v.kind_ = Kind::Array;
    }

    /** Item i, reusing the existing slot when there is one. */
    static JsonValue &
    arrayItem(JsonValue &v, size_t i)
    {
        if (i < v.items_.size())
            return v.items_[i];
        return v.items_.emplace_back();
    }

    static void
    arrayTrim(JsonValue &v, size_t n)
    {
        if (v.items_.size() > n)
            v.items_.erase(v.items_.begin() + static_cast<ptrdiff_t>(n),
                           v.items_.end());
    }

    static void
    toObject(JsonValue &v)
    {
        v.items_.clear();
        v.str_.clear();
        v.kind_ = Kind::Object;
    }

    /** Index of `key` among the first `fill` members; SIZE_MAX if new. */
    static size_t
    findMember(const JsonValue &v, size_t fill, const std::string &key)
    {
        for (size_t i = 0; i < fill; ++i)
            if (v.members_[i].first == key)
                return i;
        return SIZE_MAX;
    }

    static std::pair<std::string, JsonValue> &
    memberSlot(JsonValue &v, size_t i)
    {
        if (i < v.members_.size())
            return v.members_[i];
        return v.members_.emplace_back();
    }

    static void
    memberTrim(JsonValue &v, size_t n)
    {
        if (v.members_.size() > n)
            v.members_.erase(
                v.members_.begin() + static_cast<ptrdiff_t>(n),
                v.members_.end());
    }
};

namespace {

using Access = JsonParseAccess;

class Parser
{
  public:
    Parser(std::string_view text, size_t max_depth)
        : text_(text), maxDepth_(max_depth)
    {
    }

    JsonParseStatus
    run(JsonValue &out)
    {
        JsonParseStatus status;
        skipWs();
        if (!parseValue(out, 0)) {
            status.error = error_;
            status.errorOffset = pos_;
            return status;
        }
        skipWs();
        if (pos_ != text_.size()) {
            status.error = "trailing characters after JSON value";
            status.errorOffset = pos_;
            return status;
        }
        status.ok = true;
        return status;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (!error_)
            error_ = msg;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail("invalid literal");
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out, size_t depth)
    {
        if (depth > maxDepth_)
            return fail("nesting too deep");
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case 'n':
            Access::setNull(out);
            return literal("null");
          case 't':
            Access::setBool(out, true);
            return literal("true");
          case 'f':
            Access::setBool(out, false);
            return literal("false");
          case '"':
            return parseRawString(Access::stringSlot(out));
          case '[':
            return parseArray(out, depth);
          case '{':
            return parseObject(out, depth);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseRawString(std::string &s)
    {
        ++pos_; // opening quote
        while (true) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                s.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': s.push_back('"'); break;
              case '\\': s.push_back('\\'); break;
              case '/': s.push_back('/'); break;
              case 'b': s.push_back('\b'); break;
              case 'f': s.push_back('\f'); break;
              case 'n': s.push_back('\n'); break;
              case 'r': s.push_back('\r'); break;
              case 't': s.push_back('\t'); break;
              case 'u': {
                uint32_t cp = 0;
                if (!parseHex4(cp))
                    return false;
                // Surrogate pair: combine; a lone surrogate becomes
                // U+FFFD rather than an error (lenient like most
                // parsers; the daemon treats text as opaque anyway).
                if (cp >= 0xD800 && cp <= 0xDBFF &&
                    text_.compare(pos_, 2, "\\u") == 0) {
                    const size_t save = pos_;
                    pos_ += 2;
                    uint32_t lo = 0;
                    if (!parseHex4(lo))
                        return false;
                    if (lo >= 0xDC00 && lo <= 0xDFFF) {
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    } else {
                        pos_ = save;
                        cp = 0xFFFD;
                    }
                } else if (cp >= 0xD800 && cp <= 0xDFFF) {
                    cp = 0xFFFD;
                }
                appendUtf8(s, cp);
                break;
              }
              default:
                return fail("invalid escape character");
            }
        }
    }

    bool
    parseHex4(uint32_t &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("invalid \\u escape digit");
        }
        return true;
    }

    static void
    appendUtf8(std::string &s, uint32_t cp)
    {
        if (cp < 0x80) {
            s.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        const size_t start = pos_;
        bool negative = false;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            negative = true;
            ++pos_;
        }
        if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
            return fail("invalid number");
        if (text_[pos_] == '0') {
            ++pos_;
            if (pos_ < text_.size() && text_[pos_] >= '0' &&
                text_[pos_] <= '9')
                return fail("leading zero in number");
        } else {
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' ||
                text_[pos_] > '9')
                return fail("digit expected after decimal point");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || text_[pos_] < '0' ||
                text_[pos_] > '9')
                return fail("digit expected in exponent");
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        if (integral && !negative) {
            uint64_t u = 0;
            auto [p, ec] = std::from_chars(token.data(),
                                           token.data() + token.size(), u);
            if (ec == std::errc() && p == token.data() + token.size()) {
                Access::setU64(out, u);
                return true;
            }
        } else if (integral) {
            int64_t i = 0;
            auto [p, ec] = std::from_chars(token.data(),
                                           token.data() + token.size(), i);
            if (ec == std::errc() && p == token.data() + token.size()) {
                Access::setI64(out, i);
                return true;
            }
        }
        double d = 0;
        auto [p, ec] =
            std::from_chars(token.data(), token.data() + token.size(), d);
        if (ec != std::errc() || p != token.data() + token.size())
            return fail("number out of range");
        Access::setDbl(out, d);
        return true;
    }

    bool
    parseArray(JsonValue &out, size_t depth)
    {
        ++pos_; // '['
        Access::toArray(out);
        size_t fill = 0;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            Access::arrayTrim(out, 0);
            return true;
        }
        while (true) {
            skipWs();
            if (!parseValue(Access::arrayItem(out, fill), depth + 1))
                return false;
            ++fill;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            const char c = text_[pos_++];
            if (c == ']') {
                Access::arrayTrim(out, fill);
                return true;
            }
            if (c != ',')
                return fail("',' or ']' expected in array");
        }
    }

    bool
    parseObject(JsonValue &out, size_t depth)
    {
        ++pos_; // '{'
        Access::toObject(out);
        size_t fill = 0;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            Access::memberTrim(out, 0);
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("object key expected");
            keyScratch_.clear();
            if (!parseRawString(keyScratch_))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return fail("':' expected after object key");
            skipWs();
            // Duplicate keys replace the earlier member, matching
            // JsonValue::set; otherwise reuse the next slot in place
            // (skipping the key assignment when it already matches —
            // the steady-state case).
            const size_t existing =
                Access::findMember(out, fill, keyScratch_);
            JsonValue *slot;
            if (existing != SIZE_MAX) {
                slot = &Access::memberSlot(out, existing).second;
            } else {
                auto &member = Access::memberSlot(out, fill);
                if (member.first != keyScratch_)
                    member.first.assign(keyScratch_);
                slot = &member.second;
                ++fill;
            }
            if (!parseValue(*slot, depth + 1))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            const char c = text_[pos_++];
            if (c == '}') {
                Access::memberTrim(out, fill);
                return true;
            }
            if (c != ',')
                return fail("',' or '}' expected in object");
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
    size_t maxDepth_;
    const char *error_ = nullptr;
    /** Reused key buffer; protocol keys fit in-place (SSO). */
    std::string keyScratch_;
};

} // namespace

JsonParseStatus
parseJson(std::string_view text, JsonValue &out, size_t maxDepth)
{
    return Parser(text, maxDepth).run(out);
}

JsonValue
parseWritten(std::string_view written)
{
    JsonValue tree;
    const JsonParseStatus status = parseJson(written, tree);
    NACHOS_ASSERT(status.ok, "JsonWriter output failed to parse");
    return tree;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

namespace {

void
writeEscaped(std::string &out, std::string_view s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
appendU64(std::string &out, uint64_t u)
{
    char buf[24];
    auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), u);
    out.append(buf, p);
}

void
appendI64(std::string &out, int64_t i)
{
    char buf[24];
    auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), i);
    out.append(buf, p);
}

/**
 * Shared by dumpJson and JsonWriter so a double prints identically
 * on both paths: integral values that fit a 64-bit integer print as
 * integers (matching the isU64/isI64-first logic the tree writer has
 * always used), everything else through to_chars.
 */
void
appendDbl(std::string &out, double d)
{
    if (d >= 0 && d < 18446744073709551616.0 && d == std::floor(d)) {
        appendU64(out, static_cast<uint64_t>(d));
        return;
    }
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
        d == std::floor(d)) {
        appendI64(out, static_cast<int64_t>(d));
        return;
    }
    if (!std::isfinite(d)) {
        // JSON has no Inf/NaN; emit null like most encoders.
        out += "null";
        return;
    }
    char buf[40];
    auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), d);
    out.append(buf, p);
}

void
writeNumber(std::string &out, const JsonValue &v)
{
    if (v.isU64()) {
        appendU64(out, v.asU64());
        return;
    }
    if (v.isI64()) {
        appendI64(out, v.asI64());
        return;
    }
    appendDbl(out, v.asDouble());
}

void
writeValue(std::string &out, const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.boolean() ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        writeNumber(out, v);
        break;
      case JsonValue::Kind::String:
        writeEscaped(out, v.str());
        break;
      case JsonValue::Kind::Array:
        out.push_back('[');
        for (size_t i = 0; i < v.size(); ++i) {
            if (i)
                out.push_back(',');
            writeValue(out, v.at(i));
        }
        out.push_back(']');
        break;
      case JsonValue::Kind::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &member : v.members()) {
            if (!first)
                out.push_back(',');
            first = false;
            writeEscaped(out, member.first);
            out.push_back(':');
            writeValue(out, member.second);
        }
        out.push_back('}');
        break;
      }
    }
}

} // namespace

std::string
dumpJson(const JsonValue &v)
{
    std::string out;
    writeValue(out, v);
    return out;
}

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

void
JsonWriter::elementPrefix()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (depth_ == 0)
        return;
    const uint64_t bit = 1ull << (depth_ - 1);
    if (firstMask_ & bit)
        firstMask_ &= ~bit;
    else
        out_.push_back(',');
}

void
JsonWriter::beginObject()
{
    elementPrefix();
    out_.push_back('{');
    NACHOS_ASSERT(depth_ < 64, "json writer nesting too deep");
    ++depth_;
    firstMask_ |= 1ull << (depth_ - 1);
}

void
JsonWriter::endObject()
{
    NACHOS_ASSERT(depth_ > 0, "endObject without beginObject");
    firstMask_ &= ~(1ull << (depth_ - 1));
    --depth_;
    out_.push_back('}');
}

void
JsonWriter::beginArray()
{
    elementPrefix();
    out_.push_back('[');
    NACHOS_ASSERT(depth_ < 64, "json writer nesting too deep");
    ++depth_;
    firstMask_ |= 1ull << (depth_ - 1);
}

void
JsonWriter::endArray()
{
    NACHOS_ASSERT(depth_ > 0, "endArray without beginArray");
    firstMask_ &= ~(1ull << (depth_ - 1));
    --depth_;
    out_.push_back(']');
}

void
JsonWriter::key(std::string_view k)
{
    elementPrefix();
    writeEscaped(out_, k);
    out_.push_back(':');
    pendingKey_ = true;
}

void
JsonWriter::value(std::string_view s)
{
    elementPrefix();
    writeEscaped(out_, s);
}

void
JsonWriter::value(uint64_t u)
{
    elementPrefix();
    appendU64(out_, u);
}

void
JsonWriter::value(int64_t i)
{
    elementPrefix();
    appendI64(out_, i);
}

void
JsonWriter::value(double d)
{
    elementPrefix();
    appendDbl(out_, d);
}

void
JsonWriter::value(bool b)
{
    elementPrefix();
    out_ += b ? "true" : "false";
}

void
JsonWriter::null()
{
    elementPrefix();
    out_ += "null";
}

void
JsonWriter::value(const JsonValue &v)
{
    elementPrefix();
    writeValue(out_, v);
}

} // namespace nachos
