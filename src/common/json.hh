/**
 * @file
 * The one JSON writer behind every output stream in the tree (sweep
 * results, episode traces, fault and schedulability campaigns, the
 * explorer's report and result cache, diagnostics, the figure
 * benches): key quoting, string escaping, separators, booleans,
 * `null` for non-finite numbers and fixed-precision formatting are
 * decided here and nowhere else.
 */

#ifndef RTU_COMMON_JSON_HH
#define RTU_COMMON_JSON_HH

#include <charconv>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

namespace rtu {

/**
 * Appends JSON members to a caller-owned string. Each method takes
 * the member's key (a trusted [a-z_0-9] identifier, written without
 * escaping) or nullptr for an array element. Separators follow from
 * the text already written: a comma precedes a member unless the
 * string is empty or ends in `{`, `[` or a newline. A writer may
 * therefore continue an object whose first members were written
 * earlier (the trace sink's per-run label prefix) or spliced in
 * verbatim (diagToJson's caller context).
 *
 * Usage: `JsonWriter(line).beginObject().str("core", name)
 * .num("cycles", c).endObject();` then append '\n' for a JSONL line.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out) : out_(out) {}

    JsonWriter &beginObject(const char *key = nullptr)
    {
        return raw(key, "{");
    }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray(const char *key) { return raw(key, "["); }
    JsonWriter &endArray() { return close(']'); }

    /** A string value, escaped as jsonEscape does. */
    JsonWriter &str(const char *key, std::string_view v);
    /** An integer in decimal (the form ostream << prints). */
    template <typename T>
    JsonWriter &num(const char *key, T v);
    JsonWriter &boolean(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonWriter &boolean(const char *key, const char *v) = delete;
    /** A double through printf conversion @p fmt (e.g. "%.3f"), or
     *  `null` when it is not finite. */
    JsonWriter &fixed(const char *key, double v, const char *fmt);
    JsonWriter &null(const char *key) { return raw(key, "null"); }
    /** An already-serialized JSON value, written verbatim. */
    JsonWriter &raw(const char *key, std::string_view json);

  private:
    JsonWriter &close(char c)
    {
        out_ += c;
        return *this;
    }

    std::string &out_;
};

template <typename T>
JsonWriter &
JsonWriter::num(const char *key, T v)
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                  "num() writes integers: fixed() for doubles, "
                  "boolean() for bools");
    char buf[24];
    const char *end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    return raw(key, std::string_view(buf, end - buf));
}

/**
 * The schema-stamp header that leads every JSONL stream:
 * `{"schema":N,"bench":"X"}` and a newline. Readers check the stamp
 * before trusting the lines after it.
 */
void writeSchemaHeader(std::ostream &os, const char *bench,
                       unsigned schema);

/**
 * Escape @p s for embedding inside a JSON string literal: quote,
 * backslash, and all control characters below 0x20 (named escapes for
 * \b \t \n \f \r, \u00XX otherwise). Non-ASCII bytes pass through
 * untouched (JSON is UTF-8).
 */
std::string jsonEscape(const std::string &s);

/**
 * Inverse of jsonEscape for reading our own JSONL back (the result
 * cache). Handles the two-character escapes plus \uXXXX (encoded as
 * UTF-8). Malformed trailing escapes are kept verbatim rather than
 * dropped, so corrupt cache lines fail key comparison instead of
 * aliasing another key.
 */
std::string jsonUnescape(const std::string &s);

/**
 * Serialize a double as a JSON number. JSON has no representation for
 * infinities or NaN — printf would emit bare `inf`/`nan` and corrupt
 * the stream — so non-finite values become the literal `null`.
 * @p fmt is the printf conversion for the finite case (defaults to
 * round-trippable %.17g; writers wanting byte-stable fixed precision
 * pass e.g. "%.3f").
 */
std::string jsonNumber(double v, const char *fmt = "%.17g");

/**
 * Parse a JSON number field back, tolerating the `null` that
 * jsonNumber emits for non-finite values (and, for backward
 * compatibility with streams written before the fix, bare inf/nan):
 * returns false only on genuinely malformed text. `null` parses as
 * quiet NaN with @p wasNull set.
 */
bool jsonParseNumber(const std::string &text, double *out,
                     bool *wasNull = nullptr);

} // namespace rtu

#endif // RTU_COMMON_JSON_HH
