#include "support/json_parse.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "support/json.hh"

namespace cxl
{

const JsonValue *
JsonValue::get(const std::string &key) const
{
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
JsonValue::getStr(const std::string &key,
                  const std::string &fallback) const
{
    const JsonValue *v = get(key);
    return v && v->kind() == Kind::String ? v->str() : fallback;
}

double
JsonValue::getNum(const std::string &key, double fallback) const
{
    const JsonValue *v = get(key);
    return v && v->kind() == Kind::Number ? v->asNumber() : fallback;
}

bool
JsonValue::getBool(const std::string &key, bool fallback) const
{
    const JsonValue *v = get(key);
    return v && v->kind() == Kind::Boolean ? v->asBool() : fallback;
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Boolean;
    v.num_ = b ? 1 : 0;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

std::string
JsonValue::render() const
{
    switch (kind_) {
      case Kind::Null: return "null";
      case Kind::Boolean: return num_ != 0 ? "true" : "false";
      case Kind::Number: {
        char buf[40];
        // Integers (the emitters' common case) come back without an
        // exponent or fraction; %.17g keeps doubles lossless.
        if (num_ == static_cast<double>(
                        static_cast<long long>(num_))) {
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(num_));
        } else {
            std::snprintf(buf, sizeof(buf), "%.17g", num_);
        }
        return buf;
      }
      case Kind::String: return JsonObject::quote(str_);
      case Kind::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ", ";
            out += items_[i].render();
        }
        return out + "]";
      }
      case Kind::Object: {
        std::string out = "{";
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ", ";
            out += JsonObject::quote(members_[i].first) + ": " +
                   members_[i].second.render();
        }
        return out + "}";
      }
    }
    return "null";
}

namespace
{

/** Cursor over the document with shared error reporting. */
struct Parser {
    const std::string &text;
    std::size_t at = 0;
    int depth = 0; ///< open arrays/objects around the cursor

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON parse error at byte " +
                                 std::to_string(at) + ": " + what);
    }

    void
    skipSpace()
    {
        while (at < text.size() &&
               std::isspace(static_cast<unsigned char>(text[at]))) {
            ++at;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (at >= text.size())
            fail("unexpected end of input");
        return text[at];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++at;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text.compare(at, n, word) != 0)
            return false;
        at += n;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (at >= text.size())
                fail("unterminated string");
            const char c = text[at++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (at >= text.size())
                fail("unterminated escape");
            const char esc = text[at++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (at + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[at++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // The emitter only writes \u00xx control bytes;
                // encode the general case as UTF-8 anyway.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    /** Enter one array/object level, failing beyond kMaxJsonDepth. */
    void
    descend()
    {
        if (++depth > kMaxJsonDepth)
            fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                 " levels");
        ++at;
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        if (c == '{') {
            descend();
            std::vector<std::pair<std::string, JsonValue>> members;
            if (peek() == '}') {
                ++at;
            } else {
                while (true) {
                    std::string key = parseString();
                    expect(':');
                    members.emplace_back(std::move(key), parseValue());
                    const char next = peek();
                    ++at;
                    if (next == '}')
                        break;
                    if (next != ',')
                        fail("expected ',' or '}'");
                }
            }
            --depth;
            return JsonValue::makeObject(std::move(members));
        }
        if (c == '[') {
            descend();
            std::vector<JsonValue> items;
            if (peek() == ']') {
                ++at;
            } else {
                while (true) {
                    items.push_back(parseValue());
                    const char next = peek();
                    ++at;
                    if (next == ']')
                        break;
                    if (next != ',')
                        fail("expected ',' or ']'");
                }
            }
            --depth;
            return JsonValue::makeArray(std::move(items));
        }
        if (c == '"')
            return JsonValue::makeString(parseString());
        if (literal("true"))
            return JsonValue::makeBool(true);
        if (literal("false"))
            return JsonValue::makeBool(false);
        if (literal("null"))
            return JsonValue::makeNull();
        // Number: delegate validation to strtod over the local span.
        const char *begin = text.c_str() + at;
        char *end = nullptr;
        const double n = std::strtod(begin, &end);
        if (end == begin)
            fail("unexpected token");
        at += static_cast<std::size_t>(end - begin);
        return JsonValue::makeNumber(n);
    }
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    Parser p{text};
    JsonValue v = p.parseValue();
    p.skipSpace();
    if (p.at != text.size())
        p.fail("trailing garbage after document");
    return v;
}

} // namespace cxl
