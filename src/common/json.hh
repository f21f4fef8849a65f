/**
 * @file
 * The toolchain's one JSON codec: a minimal strict parser and the
 * string escaper every JSON writer uses.
 *
 * The parser is deliberately small and strict: UTF-8 pass-through, no
 * comments, no trailing commas, no NaN/Infinity, bounded nesting depth,
 * and "whole input or nothing" - trailing garbage after the top-level
 * value is an error. Numbers are held as doubles, so integers are exact
 * below 2^53; object member order is preserved so canonical
 * re-rendering is stable. It reads campaign-server requests as well as
 * the toolchain's own artifacts (metrics series, perf baselines).
 *
 * Failure is a return value, never an exception: a malformed request
 * line from an untrusted client must produce a structured 400-style
 * response, not a crash or a fatal().
 */

#ifndef HSCD_COMMON_JSON_HH
#define HSCD_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hscd {

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string text; ///< String payload
    std::vector<JsonValue> items; ///< Array payload
    /** Object payload, in source order (stable re-rendering). */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *get(const std::string &key) const;

    /** Typed accessors with defaults (no coercion across kinds). */
    std::string asString(const std::string &dflt = "") const;
    double asNumber(double dflt = 0) const;
    bool asBool(bool dflt = false) const;

    /** Compact single-line rendering (stable member order). */
    std::string dump() const;
};

/**
 * Parse @p text as one complete JSON value. On failure returns false
 * and fills @p error with a short position-stamped reason.
 */
bool parseJson(const std::string &text, JsonValue &out, std::string &error);

} // namespace hscd

#endif // HSCD_COMMON_JSON_HH
