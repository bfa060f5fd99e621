/**
 * @file
 * The command-line grammar shared by mscd, msctool and the bench
 * binaries: strict numeric values (parseUnsigned) and a table-driven
 * flag parser (FlagSet).
 *
 * atoi/atoll turn garbage into 0, and 0 means "unlimited" or "all
 * cores" for most of these flags, so a typo used to change behaviour
 * silently. parseUnsigned accepts exactly a non-empty run of decimal
 * digits whose value fits @p T (and is at most @p max, when given) and
 * throws std::invalid_argument, naming the flag, on anything else (a
 * sign, spaces, trailing junk, overflow).
 *
 * A FlagSet declares each flag of one binary (or one msctool verb)
 * once: its name, its value kind — a switch, a string, a strict
 * unsigned of the destination's width, a comma list of either, or a
 * custom conversion — its destination and its help line. parse()
 * owns the error cases every binary used to hand-roll: a flag at the
 * end of argv that "needs a value", an unknown `--` flag, a bad
 * number, and stray or missing positionals. All of them throw
 * std::invalid_argument; the caller prints the message and usage().
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace msc {
namespace report {

template <class T = uint64_t>
T
parseUnsigned(const char *flag, const std::string &text,
              uint64_t max = std::numeric_limits<T>::max())
{
    uint64_t v = 0;
    bool ok = !text.empty();
    for (char c : text) {
        uint64_t d = uint64_t(c - '0');
        if (c < '0' || c > '9' || v > (max - d) / 10) {
            ok = false;
            break;
        }
        v = v * 10 + d;
    }
    if (!ok)
        throw std::invalid_argument(
            std::string(flag) + " needs an unsigned integer up to " +
            std::to_string(max) + ", got \"" + text + "\"");
    return T(v);
}

/** Destination types a FlagSet parses as strict unsigned numbers. */
template <class T>
concept UnsignedFlag =
    std::is_unsigned_v<T> && !std::is_same_v<T, bool>;

class FlagSet
{
  public:
    /** @p prog heads the usage line ("msctool run"); @p about, when
     *  non-empty, is printed under it. */
    explicit FlagSet(std::string prog, std::string about = "")
        : _prog(std::move(prog)), _about(std::move(about))
    {}

    /** Switch: present sets *dst to true. */
    FlagSet &
    flag(const char *name, bool *dst, std::string help)
    {
        return func(name, nullptr, std::move(help),
                    [dst](const std::string &) { *dst = true; });
    }

    FlagSet &
    flag(const char *name, std::string *dst, const char *meta,
         std::string help)
    {
        return func(name, meta, std::move(help),
                    [dst](const std::string &v) { *dst = v; });
    }

    /** Strict unsigned, range-checked against the width of *dst or a
     *  smaller @p max. */
    template <UnsignedFlag T>
    FlagSet &
    flag(const char *name, T *dst, const char *meta, std::string help,
         T max = std::numeric_limits<T>::max())
    {
        return func(name, meta, std::move(help),
                    [name, dst, max](const std::string &v) {
                        *dst = parseUnsigned<T>(name, v, max);
                    });
    }

    /** Comma list of strings; each occurrence replaces *dst. Empty
     *  elements are skipped, and a list with none is an error. */
    FlagSet &
    flag(const char *name, std::vector<std::string> *dst,
         const char *meta, std::string help)
    {
        return func(name, meta, std::move(help), [name, dst](const std::string &v) {
            *dst = splitList(name, v);
        });
    }

    /** Comma list of strict unsigned numbers. */
    template <UnsignedFlag T>
    FlagSet &
    flag(const char *name, std::vector<T> *dst, const char *meta,
         std::string help)
    {
        return func(name, meta, std::move(help), [name, dst](const std::string &v) {
            dst->clear();
            for (const std::string &e : splitList(name, v))
                dst->push_back(parseUnsigned<T>(name, e));
        });
    }

    /** Custom conversion: @p set receives the value (an empty string
     *  for a switch, @p meta == nullptr) and throws on a bad one. */
    FlagSet &
    func(const char *name, const char *meta, std::string help,
         std::function<void(const std::string &)> set)
    {
        _flags.push_back({name, meta, std::move(help), std::move(set)});
        return *this;
    }

    /** One required positional argument. */
    FlagSet &
    positional(std::string *dst, const char *meta)
    {
        _one = dst;
        _posMeta = meta;
        return *this;
    }

    /** Any number of positional arguments, in order. */
    FlagSet &
    positionals(std::vector<std::string> *dst, const char *meta)
    {
        _many = dst;
        _posMeta = meta;
        return *this;
    }

    /** Parses @p argv[0..argc) (no program name). An argument that
     *  names a declared flag is that flag; any other `--` argument is
     *  an unknown flag; the rest are positionals. */
    void
    parse(int argc, char *const *argv) const
    {
        bool have_one = false;
        for (int i = 0; i < argc; ++i) {
            std::string a = argv[i];
            auto it = std::find_if(
                _flags.begin(), _flags.end(),
                [&](const Flag &f) { return a == f.name; });
            if (it != _flags.end()) {
                if (it->meta && i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                it->set(it->meta ? argv[++i] : "");
            } else if (a.rfind("--", 0) == 0) {
                throw std::invalid_argument("unknown flag " + a);
            } else if (_many) {
                _many->push_back(a);
            } else if (_one && !have_one) {
                *_one = a;
                have_one = true;
            } else {
                throw std::invalid_argument("unexpected argument " + a);
            }
        }
        if (_one && !have_one)
            throw std::invalid_argument(std::string("missing ") +
                                        _posMeta);
    }

    /** "prog POSITIONAL [flags]", the about line, then one line per
     *  declared flag in declaration order. */
    std::string
    usage() const
    {
        std::string out = _prog;
        if (_posMeta)
            out += std::string(" ") + _posMeta;
        if (!_flags.empty())
            out += " [flags]";
        out += '\n';
        if (!_about.empty())
            out += "    " + _about + '\n';
        std::vector<std::string> left;
        size_t width = 0;
        for (const Flag &f : _flags) {
            left.push_back(std::string(f.name) +
                           (f.meta ? std::string(" ") + f.meta : ""));
            width = std::max(width, left.back().size());
        }
        for (size_t i = 0; i < _flags.size(); ++i)
            out += "    " + left[i] +
                   std::string(width - left[i].size() + 2, ' ') +
                   _flags[i].help + '\n';
        return out;
    }

  private:
    struct Flag
    {
        const char *name;
        const char *meta;  ///< Value placeholder; null for a switch.
        std::string help;
        std::function<void(const std::string &)> set;
    };

    static std::vector<std::string>
    splitList(const char *name, const std::string &s)
    {
        std::vector<std::string> out;
        size_t pos = 0;
        while (pos <= s.size()) {
            size_t comma = std::min(s.find(',', pos), s.size());
            if (comma > pos)
                out.push_back(s.substr(pos, comma - pos));
            pos = comma + 1;
        }
        if (out.empty())
            throw std::invalid_argument(std::string(name) +
                                        " needs a non-empty list");
        return out;
    }

    std::string _prog;
    std::string _about;
    std::vector<Flag> _flags;
    std::string *_one = nullptr;
    std::vector<std::string> *_many = nullptr;
    const char *_posMeta = nullptr;
};

} // namespace report
} // namespace msc
