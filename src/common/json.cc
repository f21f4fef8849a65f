#include "common/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/strutil.hh"

namespace hscd {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += csprintf("\\u%04x",
                                unsigned(static_cast<unsigned char>(c)));
            else
                out += c;
        }
    }
    return out;
}

namespace {

/** Recursive-descent parser over one in-memory input. */
struct Parser
{
    const std::string &src;
    std::size_t pos = 0;
    std::string error;

    static constexpr int kMaxDepth = 32;

    explicit Parser(const std::string &s) : src(s) {}

    bool
    fail(const std::string &why)
    {
        if (error.empty())
            error = csprintf("%s at byte %d", why, pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < src.size() &&
               (src[pos] == ' ' || src[pos] == '\t' || src[pos] == '\n' ||
                src[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (src.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos >= src.size() || src[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < src.size()) {
            const unsigned char c = src[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= src.size())
                    return fail("truncated escape");
                const char e = src[pos + 1];
                pos += 2;
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > src.size())
                        return fail("truncated \\u escape");
                    unsigned v = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = src[pos + i];
                        if (!std::isxdigit(static_cast<unsigned char>(h)))
                            return fail("bad \\u escape");
                        v = v * 16 +
                            (std::isdigit(static_cast<unsigned char>(h))
                                 ? h - '0'
                                 : std::tolower(h) - 'a' + 10);
                    }
                    pos += 4;
                    // UTF-8 encode the BMP code point (requests are
                    // ASCII in practice; surrogate pairs unsupported).
                    if (v < 0x80) {
                        out += static_cast<char>(v);
                    } else if (v < 0x800) {
                        out += static_cast<char>(0xc0 | (v >> 6));
                        out += static_cast<char>(0x80 | (v & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (v >> 12));
                        out += static_cast<char>(0x80 | ((v >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (v & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            if (c < 0x20)
                return fail("control character in string");
            out += static_cast<char>(c);
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= src.size())
            return fail("unexpected end of input");
        const char c = src[pos];
        if (c == '{') {
            ++pos;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos < src.size() && src[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos >= src.size() || src[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.members.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos < src.size() && src[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < src.size() && src[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos < src.size() && src[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                JsonValue v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.items.push_back(std::move(v));
                skipWs();
                if (pos < src.size() && src[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < src.size() && src[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        }
        if (literal("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (literal("null")) {
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        // Number: strict JSON grammar via manual scan, then strtod.
        const std::size_t start = pos;
        if (pos < src.size() && src[pos] == '-')
            ++pos;
        if (pos >= src.size() ||
            !std::isdigit(static_cast<unsigned char>(src[pos])))
            return fail("expected value");
        while (pos < src.size() &&
               std::isdigit(static_cast<unsigned char>(src[pos])))
            ++pos;
        if (pos < src.size() && src[pos] == '.') {
            ++pos;
            if (pos >= src.size() ||
                !std::isdigit(static_cast<unsigned char>(src[pos])))
                return fail("bad number");
            while (pos < src.size() &&
                   std::isdigit(static_cast<unsigned char>(src[pos])))
                ++pos;
        }
        if (pos < src.size() && (src[pos] == 'e' || src[pos] == 'E')) {
            ++pos;
            if (pos < src.size() && (src[pos] == '+' || src[pos] == '-'))
                ++pos;
            if (pos >= src.size() ||
                !std::isdigit(static_cast<unsigned char>(src[pos])))
                return fail("bad exponent");
            while (pos < src.size() &&
                   std::isdigit(static_cast<unsigned char>(src[pos])))
                ++pos;
        }
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(src.substr(start, pos - start).c_str(),
                                 nullptr);
        return true;
    }
};

void
dumpValue(const JsonValue &v, std::string &out)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case JsonValue::Kind::Number: {
        // Integers render without a decimal point (the request grammar
        // is integer-valued); anything else gets shortest-round-trip.
        const double d = v.number;
        if (d == static_cast<double>(static_cast<long long>(d)))
            out += csprintf("%d", static_cast<long long>(d));
        else
            out += csprintf("%.17g", d);
        break;
      }
      case JsonValue::Kind::String:
        out += '"' + jsonEscape(v.text) + '"';
        break;
      case JsonValue::Kind::Array: {
        out += '[';
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            if (i)
                out += ',';
            dumpValue(v.items[i], out);
        }
        out += ']';
        break;
      }
      case JsonValue::Kind::Object: {
        out += '{';
        for (std::size_t i = 0; i < v.members.size(); ++i) {
            if (i)
                out += ',';
            out += '"' + jsonEscape(v.members[i].first) + "\":";
            dumpValue(v.members[i].second, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &m : members)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

std::string
JsonValue::asString(const std::string &dflt) const
{
    return kind == Kind::String ? text : dflt;
}

double
JsonValue::asNumber(double dflt) const
{
    return kind == Kind::Number ? number : dflt;
}

bool
JsonValue::asBool(bool dflt) const
{
    return kind == Kind::Bool ? boolean : dflt;
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpValue(*this, out);
    return out;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    Parser p(text);
    out = JsonValue();
    if (!p.parseValue(out, 0)) {
        error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        error = csprintf("trailing garbage at byte %d", p.pos);
        return false;
    }
    return true;
}

} // namespace hscd
