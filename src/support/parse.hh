/**
 * @file
 * Range-checked decimal parsing for command-line values. Digits only:
 * a sign, whitespace, trailing junk or overflow is rejected rather
 * than wrapped (strtoull would turn "-1" into UINT64_MAX and
 * "-18446744073709551615" into 1). Callers report the error their own
 * way.
 */

#ifndef NACHOS_SUPPORT_PARSE_HH
#define NACHOS_SUPPORT_PARSE_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace nachos {

/** The decimal `text` if it is a plain number in [min, max]. */
inline std::optional<uint64_t>
parseDecimal(std::string_view text, uint64_t min = 0,
             uint64_t max = UINT64_MAX)
{
    uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end || value < min || value > max)
        return std::nullopt;
    return value;
}

} // namespace nachos

#endif // NACHOS_SUPPORT_PARSE_HH
