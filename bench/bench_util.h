/**
 * @file
 * Shared helpers for the reproduction benches: table formatting,
 * paper-reference printing, and the medians the wall-clock gates read.
 */

#ifndef CHERI_BENCH_BENCH_UTIL_H
#define CHERI_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace cheri::bench
{

inline void
banner(const std::string &title)
{
    std::printf("\n============================================================"
                "====\n%s\n============================================="
                "===============\n",
                title.c_str());
}

inline void
note(const std::string &text)
{
    std::printf("%s\n", text.c_str());
}

/** Median of @p samples (the upper middle one for an even count). */
inline double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/**
 * Time every arm @p trials times, interleaved (each trial runs all the
 * arms once, in order), and return each arm's median.  Host load that
 * comes and goes then slows the arms alike, and moves a gate comparing
 * them only when it lasts through most of the trials.
 */
inline std::vector<double>
interleavedMedians(int trials,
                   const std::vector<std::function<double()>> &arms)
{
    std::vector<std::vector<double>> samples(arms.size());
    for (int t = 0; t < trials; ++t) {
        for (std::size_t a = 0; a < arms.size(); ++a)
            samples[a].push_back(arms[a]());
    }
    std::vector<double> medians;
    for (std::vector<double> &s : samples)
        medians.push_back(median(std::move(s)));
    return medians;
}

} // namespace cheri::bench

#endif // CHERI_BENCH_BENCH_UTIL_H
