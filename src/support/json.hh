/**
 * @file
 * Minimal JSON value / parser / writer for the serving layer and the
 * machine-readable bench output. Deliberately small: no external
 * dependency, insertion-ordered objects (so encodings are
 * deterministic and byte-stable across runs), a recursive-descent
 * parser that returns errors instead of crashing on malformed input
 * (the daemon feeds it untrusted bytes), and a writer whose number
 * formatting round-trips uint64 counters and doubles exactly.
 */

#ifndef NACHOS_SUPPORT_JSON_HH
#define NACHOS_SUPPORT_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nachos {

/**
 * One JSON value. Numbers remember how they were built (unsigned,
 * signed, or floating) so writing them back is lossless — counters and
 * 64-bit digests survive a round trip bit-exactly.
 */
class JsonValue
{
  public:
    enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

    /** How a Number is represented internally. */
    enum class NumRep : uint8_t { U64, I64, Dbl };

    JsonValue() = default; ///< null
    JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
    JsonValue(uint64_t u) : kind_(Kind::Number), rep_(NumRep::U64), u64_(u) {}
    JsonValue(int64_t i) : kind_(Kind::Number), rep_(NumRep::I64), i64_(i) {}
    JsonValue(int i) : JsonValue(static_cast<int64_t>(i)) {}
    JsonValue(unsigned u) : JsonValue(static_cast<uint64_t>(u)) {}
    JsonValue(double d) : kind_(Kind::Number), rep_(NumRep::Dbl), dbl_(d) {}
    JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    JsonValue(const char *s) : JsonValue(std::string(s)) {}

    static JsonValue makeArray() { JsonValue v; v.kind_ = Kind::Array; return v; }
    static JsonValue makeObject() { JsonValue v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const;
    const std::string &str() const;

    /** True for a Number without a fractional part that fits uint64. */
    bool isU64() const;
    /** True for a Number without a fractional part that fits int64. */
    bool isI64() const;
    uint64_t asU64() const; ///< requires isU64()
    int64_t asI64() const;  ///< requires isI64()
    double asDouble() const; ///< any Number

    // ---- arrays -----------------------------------------------------
    size_t size() const { return items_.size(); }
    const JsonValue &at(size_t i) const;
    void push(JsonValue v);

    // ---- objects (insertion-ordered) --------------------------------
    /** Set (or replace) a member; insertion order is emission order. */
    void set(std::string key, JsonValue v);
    /** Member lookup; nullptr if absent (or not an object). */
    const JsonValue *find(std::string_view key) const;
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return members_;
    }

  private:
    friend struct JsonParseAccess; ///< in-place parser (json.cc)

    Kind kind_ = Kind::Null;
    NumRep rep_ = NumRep::U64;
    bool bool_ = false;
    uint64_t u64_ = 0;
    int64_t i64_ = 0;
    double dbl_ = 0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Result of parseJson. The error message is a static string (never
 * owned), so reporting a parse failure allocates nothing.
 */
struct JsonParseStatus
{
    bool ok = false;
    const char *error = "";
    size_t errorOffset = 0;
};

/**
 * Parse one JSON document *into* `out`, reusing its allocations:
 * object member slots, array item slots, and string buffers are
 * assigned in place rather than rebuilt, so re-parsing a same-shaped
 * document (the daemon's steady state: a stream of near-identical
 * request lines into one per-connection tree) performs zero heap
 * allocations. A fresh `out` gives an ordinary parse.
 *
 * Never throws and never aborts: malformed input, over-deep nesting
 * (> maxDepth) and trailing garbage all come back as errors. Duplicate
 * keys replace the earlier member, as JsonValue::set does. On failure
 * `out` is left in an unspecified (but valid) state; the next
 * successful parse overwrites it. Input size is the caller's problem
 * (the daemon caps line length before parsing).
 */
JsonParseStatus parseJson(std::string_view text, JsonValue &out,
                          size_t maxDepth = 64);

/**
 * The tree of bytes this process wrote through JsonWriter — how the
 * tree-returning record adapters reuse the one writer definition of
 * each record. Writer output always parses, so a failure asserts.
 */
JsonValue parseWritten(std::string_view written);

/**
 * Serialize to the compact one-line wire form (the canonical
 * encoding: no spaces, members in insertion order).
 */
std::string dumpJson(const JsonValue &v);

/**
 * Append-style compact JSON encoder over a caller-owned buffer, and
 * the one definition of every wire record (harness/run_json,
 * service/protocol, sweep/store): it allocates nothing once the buffer
 * has grown. Its bytes equal dumpJson of the same logical document
 * (same escaping, same lossless number formatting), so a tree parsed
 * back from them (parseWritten) dumps to the same bytes.
 *
 * Usage: beginObject/endObject, beginArray/endArray, key() before
 * each object member (or member() for a key and a leaf), value() for
 * leaves. Comma placement is automatic. Nesting beyond 64 levels is a
 * programming error.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out) : out_(out) {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    void key(std::string_view k);

    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(const std::string &s) { value(std::string_view(s)); }
    void value(uint64_t u);
    void value(int64_t i);
    void value(int i) { value(static_cast<int64_t>(i)); }
    void value(unsigned u) { value(static_cast<uint64_t>(u)); }
    void value(double d);
    void value(bool b);
    void null();
    /** Embed a prebuilt subtree (compact form). */
    void value(const JsonValue &v);

    /** One object member: key() then value(). */
    template <class T>
    void member(std::string_view k, const T &v)
    {
        key(k);
        value(v);
    }

  private:
    void elementPrefix();

    std::string &out_;
    uint64_t firstMask_ = 0; ///< bit d: next element at depth d is first
    uint32_t depth_ = 0;
    bool pendingKey_ = false;
};

} // namespace nachos

#endif // NACHOS_SUPPORT_JSON_HH
