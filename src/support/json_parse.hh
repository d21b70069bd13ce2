/**
 * @file
 * Minimal recursive-descent JSON reader: the inverse of
 * support/json.hh's emitter, used by the fuzz corpus loader and the
 * tests that round-trip rendered CheckResult / bench JSON.
 *
 * Covers the full JSON value grammar the emitters produce (objects,
 * arrays, strings with the emitter's escape set, numbers, booleans,
 * null).  Object member order is preserved so schema-order tests can
 * use the parsed form too.
 */

#ifndef CXL_SUPPORT_JSON_PARSE_HH
#define CXL_SUPPORT_JSON_PARSE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cxl
{

/** One parsed JSON value (a small immutable tree). */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t {
        Null,
        Boolean,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** Boolean payload; false for any other kind. */
    bool asBool() const { return kind_ == Kind::Boolean && num_ != 0; }

    /** Numeric payload; 0 for any other kind. */
    double asNumber() const { return kind_ == Kind::Number ? num_ : 0; }

    /** Numeric payload truncated to an unsigned integer. */
    std::uint64_t
    asUint() const
    {
        const double n = asNumber();
        return n > 0 ? static_cast<std::uint64_t>(n) : 0;
    }

    /** String payload; empty for any other kind. */
    const std::string &str() const { return str_; }

    /** Array elements; empty for any other kind. */
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object members in document order; empty for any other kind. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *get(const std::string &key) const;

    /**
     * Re-emit this value as JSON text.  Parseable by parseJson but
     * not guaranteed byte-identical to the original document
     * (numbers go through double).
     */
    std::string render() const;

    /** Convenience accessors over get(): default on absence. */
    std::string getStr(const std::string &key,
                       const std::string &fallback = "") const;
    double getNum(const std::string &key, double fallback = 0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

    // Builders (used by the parser; tests may construct values too).
    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue
    makeObject(std::vector<std::pair<std::string, JsonValue>> members);

  private:
    Kind kind_ = Kind::Null;
    double num_ = 0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Deepest array/object nesting parseJson accepts.  The parser recurses
 * once per level, so the limit bounds its stack use on untrusted input;
 * the emitters never nest deeper than a handful of levels.
 */
constexpr int kMaxJsonDepth = 128;

/**
 * Parse one JSON document.
 *
 * @throws std::runtime_error with a byte offset on malformed input,
 *         nesting deeper than kMaxJsonDepth, or trailing garbage.
 */
JsonValue parseJson(const std::string &text);

} // namespace cxl

#endif // CXL_SUPPORT_JSON_PARSE_HH
