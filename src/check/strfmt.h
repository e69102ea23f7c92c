/**
 * @file
 * printf-style formatting into a std::string, for the checking layer's
 * divergence and violation reports.
 */

#ifndef CHERI_CHECK_STRFMT_H
#define CHERI_CHECK_STRFMT_H

#include <cstdarg>
#include <cstdio>
#include <string>

namespace cheri::check
{

/** @p f formatted with the arguments, however long the result. */
[[gnu::format(printf, 1, 2)]] inline std::string
fmt(const char *f, ...)
{
    va_list ap, again;
    va_start(ap, f);
    va_copy(again, ap);
    // Measure, then write into a string sized to fit (the terminator
    // vsnprintf stores lands on data()[size()]).
    int n = std::vsnprintf(nullptr, 0, f, ap);
    va_end(ap);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, f, again);
    va_end(again);
    return out;
}

} // namespace cheri::check

#endif // CHERI_CHECK_STRFMT_H
