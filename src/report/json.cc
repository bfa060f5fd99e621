#include "report/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "runtime/error.h"

namespace msc {
namespace report {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("json: " + what);
}

} // anonymous namespace

Json::Json(uint64_t v) : _kind(Kind::Int)
{
    if (v > uint64_t(std::numeric_limits<int64_t>::max())) {
        _uintHigh = true;
        _int = int64_t(v);      // two's-complement bit pattern
    } else {
        _int = int64_t(v);
    }
}

Json::Json(double v) : _kind(Kind::Double), _dbl(v)
{
    if (!std::isfinite(v))
        fail("non-finite number");
}

bool
Json::asBool() const
{
    if (_kind != Kind::Bool)
        fail("not a bool");
    return _bool;
}

int64_t
Json::asInt() const
{
    if (_kind != Kind::Int || _uintHigh)
        fail("not an int64");
    return _int;
}

uint64_t
Json::asUInt() const
{
    if (_kind != Kind::Int || (!_uintHigh && _int < 0))
        fail("not a uint64");
    return uint64_t(_int);
}

double
Json::asDouble() const
{
    if (_kind == Kind::Double)
        return _dbl;
    if (_kind == Kind::Int)
        return _uintHigh ? double(uint64_t(_int)) : double(_int);
    fail("not a number");
}

const std::string &
Json::asString() const
{
    if (_kind != Kind::String)
        fail("not a string");
    return _str;
}

void
Json::push(Json v)
{
    if (_kind == Kind::Null)
        _kind = Kind::Array;
    if (_kind != Kind::Array)
        fail("push on non-array");
    _arr.push_back(std::move(v));
}

size_t
Json::size() const
{
    if (_kind == Kind::Array)
        return _arr.size();
    if (_kind == Kind::Object)
        return _obj.size();
    fail("size of non-container");
}

const Json &
Json::at(size_t i) const
{
    if (_kind != Kind::Array || i >= _arr.size())
        fail("bad array index");
    return _arr[i];
}

Json &
Json::operator[](const std::string &key)
{
    if (_kind == Kind::Null)
        _kind = Kind::Object;
    if (_kind != Kind::Object)
        fail("operator[] on non-object");
    for (auto &kv : _obj)
        if (kv.first == key)
            return kv.second;
    _obj.emplace_back(key, Json());
    return _obj.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &kv : _obj)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const Json &
Json::get(const std::string &key) const
{
    const Json *v = find(key);
    if (!v)
        fail("missing member \"" + key + "\"");
    return *v;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (_kind != Kind::Object)
        fail("members of non-object");
    return _obj;
}

bool
operator==(const Json &a, const Json &b)
{
    if (a._kind != b._kind)
        return false;
    switch (a._kind) {
      case Json::Kind::Null:   return true;
      case Json::Kind::Bool:   return a._bool == b._bool;
      case Json::Kind::Int:
        return a._int == b._int && a._uintHigh == b._uintHigh;
      case Json::Kind::Double: return a._dbl == b._dbl;
      case Json::Kind::String: return a._str == b._str;
      case Json::Kind::Array:  return a._arr == b._arr;
      case Json::Kind::Object: return a._obj == b._obj;
    }
    return false;
}

namespace {

void
escapeTo(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Shortest round-trip representation (std::to_chars), with a ".0"
 *  suffix when the result would read back as an integer — keeping the
 *  Int/Double distinction stable across dump/parse cycles. */
void
doubleTo(std::string &out, double v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    std::string s(buf, res.ptr);
    if (s.find_first_of(".eE") == std::string::npos)
        s += ".0";
    out += s;
}

} // anonymous namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(size_t(indent) * size_t(d), ' ');
        }
    };
    switch (_kind) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += _bool ? "true" : "false";
        break;
      case Kind::Int: {
        char buf[24];
        std::to_chars_result res = _uintHigh
            ? std::to_chars(buf, buf + sizeof(buf), uint64_t(_int))
            : std::to_chars(buf, buf + sizeof(buf), _int);
        out.append(buf, res.ptr);
        break;
      }
      case Kind::Double:
        doubleTo(out, _dbl);
        break;
      case Kind::String:
        escapeTo(out, _str);
        break;
      case Kind::Array:
        if (_arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < _arr.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            _arr[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Kind::Object:
        if (_obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < _obj.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            escapeTo(out, _obj[i].first);
            out += indent > 0 ? ": " : ":";
            _obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

namespace {

/** Recursive-descent parser over a string view.
 *
 *  Container nesting is capped: the parser recurses once per nesting
 *  level, so unbounded depth on attacker-supplied input would overflow
 *  the stack long before exhausting memory. */
class Parser
{
  public:
    static constexpr int MAX_DEPTH = 200;

    explicit Parser(const std::string &s) : _s(s) {}

    Json
    document()
    {
        Json v = value();
        skipWs();
        if (_pos != _s.size())
            err("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    err(const std::string &what)
    {
        fail(what + " at offset " + std::to_string(_pos));
    }

    void
    skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' || _s[_pos] == '\n' ||
                _s[_pos] == '\r'))
            ++_pos;
    }

    char
    peek()
    {
        if (_pos >= _s.size())
            err("unexpected end of input");
        return _s[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            err(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool
    consume(const char *lit)
    {
        size_t n = std::char_traits<char>::length(lit);
        if (_s.compare(_pos, n, lit) == 0) {
            _pos += n;
            return true;
        }
        return false;
    }

    Json
    value()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{':
          case '[': {
            if (_depth >= MAX_DEPTH)
                err("nesting deeper than " + std::to_string(MAX_DEPTH));
            ++_depth;
            Json v = c == '{' ? object() : array();
            --_depth;
            return v;
          }
          case '"': return Json(string());
          case 't':
            if (consume("true"))
                return Json(true);
            err("bad literal");
          case 'f':
            if (consume("false"))
                return Json(false);
            err("bad literal");
          case 'n':
            if (consume("null"))
                return Json();
            err("bad literal");
          default:  return number();
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _s.size())
                err("unterminated string");
            char c = _s[_pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _s.size())
                err("bad escape");
            char e = _s[_pos++];
            switch (e) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                if (_pos + 4 > _s.size())
                    err("bad \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = _s[_pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else
                        err("bad \\u escape");
                }
                // BMP code point to UTF-8 (we never emit surrogate
                // pairs; reject them rather than mis-decode).
                if (cp >= 0xd800 && cp <= 0xdfff)
                    err("surrogate \\u escape unsupported");
                if (cp < 0x80) {
                    out += char(cp);
                } else if (cp < 0x800) {
                    out += char(0xc0 | (cp >> 6));
                    out += char(0x80 | (cp & 0x3f));
                } else {
                    out += char(0xe0 | (cp >> 12));
                    out += char(0x80 | ((cp >> 6) & 0x3f));
                    out += char(0x80 | (cp & 0x3f));
                }
                break;
              }
              default: err("bad escape");
            }
        }
    }

    Json
    number()
    {
        size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        while (_pos < _s.size() &&
               ((_s[_pos] >= '0' && _s[_pos] <= '9') || _s[_pos] == '.' ||
                _s[_pos] == 'e' || _s[_pos] == 'E' || _s[_pos] == '+' ||
                _s[_pos] == '-'))
            ++_pos;
        std::string tok = _s.substr(start, _pos - start);
        if (tok.empty() || tok == "-")
            err("bad number");
        bool integral =
            tok.find_first_of(".eE") == std::string::npos;
        if (integral) {
            if (tok[0] == '-') {
                int64_t v = 0;
                auto r = std::from_chars(tok.data(),
                                         tok.data() + tok.size(), v);
                if (r.ec == std::errc() && r.ptr == tok.data() + tok.size())
                    return Json(v);
            } else {
                uint64_t v = 0;
                auto r = std::from_chars(tok.data(),
                                         tok.data() + tok.size(), v);
                if (r.ec == std::errc() && r.ptr == tok.data() + tok.size())
                    return Json(v);
            }
            // Out-of-range integer literal: fall through to double.
        }
        double d = 0;
        auto r = std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (r.ec != std::errc() || r.ptr != tok.data() + tok.size())
            err("bad number \"" + tok + "\"");
        return Json(d);
    }

    Json
    array()
    {
        expect('[');
        Json a = Json::array();
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return a;
        }
        while (true) {
            a.push(value());
            skipWs();
            char c = peek();
            ++_pos;
            if (c == ']')
                return a;
            if (c != ',')
                err("expected ',' or ']'");
        }
    }

    Json
    object()
    {
        expect('{');
        Json o = Json::object();
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return o;
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            o[key] = value();
            skipWs();
            char c = peek();
            ++_pos;
            if (c == '}')
                return o;
            if (c != ',')
                err("expected ',' or '}'");
        }
    }

    const std::string &_s;
    size_t _pos = 0;
    int _depth = 0;
};

} // anonymous namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        throw runtime::StageError(runtime::ErrorKind::Io, "report",
                                  "cannot open " + path +
                                      " for writing");
    f << content;
    if (!f)
        throw runtime::StageError(runtime::ErrorKind::Io, "report",
                                  "write failed for " + path);
}

} // namespace report
} // namespace msc
