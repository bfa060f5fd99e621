/**
 * @file
 * Strict numeric command-line values, shared by mscd, msctool and the
 * bench binaries.
 *
 * atoi/atoll turn garbage into 0, and 0 means "unlimited" or "all
 * cores" for most of these flags, so a typo used to change behaviour
 * silently. parseUnsigned accepts exactly a non-empty run of decimal
 * digits whose value fits @p T and throws std::invalid_argument,
 * naming the flag, on anything else (a sign, spaces, trailing junk,
 * overflow).
 */

#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace msc {
namespace report {

template <class T = uint64_t>
T
parseUnsigned(const char *flag, const std::string &text)
{
    const uint64_t max = std::numeric_limits<T>::max();
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

} // namespace report
} // namespace msc
