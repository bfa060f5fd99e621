/**
 * @file
 * Minimal self-contained JSON value, writer and parser.
 *
 * Goals, in order: (1) deterministic output — objects preserve
 * insertion order and numbers use shortest round-trip formatting, so
 * a sweep serialized twice (or with different `--jobs`) is
 * byte-identical; (2) lossless integers — counters are stored as
 * uint64/int64, not double; (3) no third-party dependency.
 *
 * Not a general-purpose JSON library: no comments, no NaN/Inf
 * (rejected on write and parse), UTF-8 passed through verbatim.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace msc {
namespace report {

/** One JSON value (null / bool / number / string / array / object). */
class Json
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Int,      ///< Signed or unsigned 64-bit integer.
        Double,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : _kind(Kind::Bool), _bool(b) {}
    Json(int v) : _kind(Kind::Int), _int(v) {}
    Json(unsigned v) : _kind(Kind::Int), _int(int64_t(v)) {}
    Json(int64_t v) : _kind(Kind::Int), _int(v) {}
    Json(uint64_t v);
    Json(double v);
    Json(const char *s) : _kind(Kind::String), _str(s) {}
    Json(std::string s) : _kind(Kind::String), _str(std::move(s)) {}

    static Json array() { return Json(Kind::Array); }
    static Json object() { return Json(Kind::Object); }

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isNumber() const
    {
        return _kind == Kind::Int || _kind == Kind::Double;
    }

    /// @name Scalar accessors (throw std::runtime_error on kind
    /// mismatch).
    /// @{
    bool asBool() const;
    int64_t asInt() const;
    uint64_t asUInt() const;
    double asDouble() const;      ///< Accepts Int and Double.
    const std::string &asString() const;
    /// @}

    /// @name Array interface.
    /// @{
    void push(Json v);
    size_t size() const;          ///< Array or Object element count.
    const Json &at(size_t i) const;
    /// @}

    /// @name Object interface (insertion-ordered).
    /// @{
    /** Inserts or retrieves a member (creates Null when absent). */
    Json &operator[](const std::string &key);
    /** Returns the member or nullptr. */
    const Json *find(const std::string &key) const;
    /** Returns the member; throws when absent. */
    const Json &get(const std::string &key) const;
    bool has(const std::string &key) const { return find(key); }
    const std::vector<std::pair<std::string, Json>> &members() const;
    /// @}

    /**
     * Serializes. `indent` > 0 pretty-prints with that many spaces
     * per level; 0 emits compact one-line JSON. Output is fully
     * deterministic for a given value.
     */
    std::string dump(int indent = 0) const;

    /** Parses @p text; throws std::runtime_error with position info. */
    static Json parse(const std::string &text);

    /** Structural equality (Int 3 == Double 3.0 is false). */
    friend bool operator==(const Json &a, const Json &b);
    friend bool operator!=(const Json &a, const Json &b)
    {
        return !(a == b);
    }

  private:
    explicit Json(Kind k) : _kind(k) {}
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind _kind = Kind::Null;
    bool _bool = false;
    int64_t _int = 0;
    bool _uintHigh = false;       ///< _int carries a uint64 > INT64_MAX.
    double _dbl = 0;
    std::string _str;
    std::vector<Json> _arr;
    std::vector<std::pair<std::string, Json>> _obj;
};

/** Writes @p content to @p path; throws runtime::StageError
 *  (ErrorKind::Io) on failure. */
void writeFile(const std::string &path, const std::string &content);

} // namespace report
} // namespace msc
