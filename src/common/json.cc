#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>

namespace rtu {

namespace {

void
appendEscaped(std::string &out, std::string_view s)
{
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\t': out += "\\t"; break;
          case '\n': out += "\\n"; break;
          case '\f': out += "\\f"; break;
          case '\r': out += "\\r"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
}

} // namespace

JsonWriter &
JsonWriter::raw(const char *key, std::string_view json)
{
    if (!out_.empty() && out_.back() != '{' && out_.back() != '[' &&
        out_.back() != '\n')
        out_ += ',';
    if (key != nullptr) {
        out_ += '"';
        out_ += key;
        out_ += "\":";
    }
    out_ += json;
    return *this;
}

JsonWriter &
JsonWriter::str(const char *key, std::string_view v)
{
    raw(key, "\"");
    appendEscaped(out_, v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::fixed(const char *key, double v, const char *fmt)
{
    if (!std::isfinite(v))
        return null(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return raw(key, buf);
}

void
writeSchemaHeader(std::ostream &os, const char *bench, unsigned schema)
{
    std::string line;
    JsonWriter(line).beginObject().num("schema", schema).str("bench", bench)
        .endObject();
    os << line << '\n';
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

namespace {

int
hexVal(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c != '\\' || i + 1 >= s.size()) {
            out.push_back(c);
            continue;
        }
        const char e = s[++i];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 't': out.push_back('\t'); break;
          case 'n': out.push_back('\n'); break;
          case 'f': out.push_back('\f'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': {
            if (i + 4 >= s.size()) {
                out += "\\u";  // malformed: keep verbatim
                break;
            }
            int cp = 0;
            bool ok = true;
            for (int k = 1; k <= 4; ++k) {
                const int h = hexVal(s[i + k]);
                ok = ok && h >= 0;
                cp = (cp << 4) | (h < 0 ? 0 : h);
            }
            if (!ok) {
                out += "\\u";
                break;
            }
            i += 4;
            // Minimal UTF-8 encoding (surrogate pairs are not produced
            // by jsonEscape; a lone surrogate encodes as-is).
            if (cp < 0x80) {
                out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
                out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            } else {
                out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                out.push_back(
                    static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            }
            break;
          }
          default:
            out.push_back('\\');  // unknown escape: keep verbatim
            out.push_back(e);
        }
    }
    return out;
}

std::string
jsonNumber(double v, const char *fmt)
{
    std::string out;
    JsonWriter(out).fixed(nullptr, v, fmt);
    return out;
}

bool
jsonParseNumber(const std::string &text, double *out, bool *wasNull)
{
    if (wasNull)
        *wasNull = false;
    const char *s = text.c_str();
    while (*s == ' ' || *s == '\t')
        ++s;
    if (std::strncmp(s, "null", 4) == 0) {
        if (out)
            *out = std::nan("");
        if (wasNull)
            *wasNull = true;
        s += 4;
    } else {
        char *end = nullptr;
        const double v = std::strtod(s, &end);
        if (end == s)
            return false;
        if (out)
            *out = v;
        s = end;
    }
    while (*s == ' ' || *s == '\t')
        ++s;
    return *s == '\0';
}

} // namespace rtu
