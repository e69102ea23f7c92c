/**
 * @file
 * The bench harness.  Every bench in bench/ except the google-benchmark
 * capmodel_micro states each number once, as a record
 * `{bench, case, metric, unit, value, iqr, deterministic}`: `case` is
 * the row label, `metric` the column.  The human tables, the `--json`
 * output (one `cheri.bench.v1` record per line) and the `--check`
 * verdict all come from that list.
 *
 * Deterministic records are modelled numbers (simulated instructions,
 * cycles, counts, and what is derived only from them): identical on
 * every run and host, and gated against the committed BENCH_sim.json
 * by tools/bench_all.  Host wall-clock numbers are marked `.host`.
 */

#ifndef CHERI_BENCH_BENCH_UTIL_H
#define CHERI_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace cheri::bench
{

/** Median of @p samples (the upper middle one for an even count). */
inline double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** Interquartile range by index quartiles: sorted[3n/4] - sorted[n/4]. */
inline double
iqr(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[3 * samples.size() / 4] - samples[samples.size() / 4];
}

struct Trials
{
    double median = 0;
    double iqr = 0;
};

/**
 * Time every arm @p trials times, interleaved (each trial runs all the
 * arms once, in order), and return each arm's median and IQR.  Host
 * load that comes and goes then slows the arms alike, and moves a gate
 * comparing them only when it lasts through most of the trials.
 */
inline std::vector<Trials>
interleavedMedians(int trials,
                   const std::vector<std::function<double()>> &arms)
{
    std::vector<std::vector<double>> samples(arms.size());
    for (int t = 0; t < trials; ++t) {
        for (std::size_t a = 0; a < arms.size(); ++a)
            samples[a].push_back(arms[a]());
    }
    std::vector<Trials> out;
    for (const std::vector<double> &s : samples)
        out.push_back({median(s), iqr(s)});
    return out;
}

inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** printf into a std::string. */
__attribute__((format(printf, 1, 2))) inline std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/** How a record is reported; designated-initialise what differs. */
struct Style
{
    /** "%" and "x" print as a suffix, "count" bare, any other unit in
     *  the column header. */
    const char *unit = "count";
    /** Decimals of the value, in the table and in the JSON. */
    int places = 0;
    /** Print a '+' on positive values (overheads). */
    bool sign = false;
    /** A host wall-clock number: varies run to run, never gated. */
    bool host = false;
    /** IQR of the trials behind the value, in its unit; < 0: one run. */
    double iqr = -1;
    int iqrPlaces = 0;
};

class Report
{
  public:
    /**
     * Parse `--json` and `--check`, plus this bench's own numeric
     * options @p valueFlags (each takes one argument; see option()).
     * Anything else prints a usage message and exits with status 2.
     */
    Report(int argc, char **argv, std::vector<std::string> valueFlags = {})
    {
        name = argv[0];
        name.erase(0, name.find_last_of('/') + 1);
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--json" || arg == "--check") {
                (arg == "--json" ? json : check) = true;
            } else if (std::count(valueFlags.begin(), valueFlags.end(),
                                  arg) && i + 1 < argc) {
                options[arg] = std::strtoull(argv[++i], nullptr, 0);
            } else {
                std::fprintf(stderr, "%s: unknown argument '%s'\nusage: "
                             "%s [--json] [--check]", name.c_str(),
                             arg.c_str(), name.c_str());
                for (const std::string &f : valueFlags)
                    std::fprintf(stderr, " [%s N]", f.c_str());
                std::fprintf(stderr, "\n");
                std::exit(2);
            }
        }
    }

    /** The value given for @p flag, or @p dflt. */
    u64
    option(const std::string &flag, u64 dflt) const
    {
        return options.count(flag) ? options.at(flag) : dflt;
    }

    /** Start a titled section of the human output. */
    void section(const std::string &title) { items.push_back({'=', title}); }

    /** Human-only text: explanations and paper-reference values.  It
     *  also ends the current table. */
    void note(const std::string &text) { items.push_back({'t', text}); }

    /** Report @p value of @p metric for row @p kase. */
    void
    add(const std::string &kase, const std::string &metric, double value,
        Style style = {})
    {
        if (!keys.insert(kase + '\0' + metric).second)
            throw std::logic_error(name + ": duplicate " + kase + "/" +
                                   metric);
        // JsonWriter writes fractions to four significant digits; a
        // gated number must not lose a digit its table prints.
        double r = round(value, style.places);
        if (!style.host && r != std::trunc(r) &&
            std::strtod(format("%.4g", r).c_str(), nullptr) != r)
            throw std::logic_error(name + ": " + kase + "/" + metric +
                                   " needs fewer places or another unit");
        items.push_back({'r', {}, {kase, metric, value, style}});
    }

    /** A condition `--check` gates on; @p why names it on failure. */
    void
    expect(bool cond, const std::string &why)
    {
        if (!cond)
            failures.push_back(why);
    }

    /** Print the report (tables or JSON); return the exit status. */
    int
    finish() const
    {
        json ? printJson() : printHuman();
        if (!check)
            return 0;
        std::fflush(stdout);
        for (const std::string &why : failures)
            std::fprintf(stderr, "%s: CHECK FAILED: %s\n", name.c_str(),
                         why.c_str());
        if (failures.empty())
            std::fprintf(stderr, "%s: CHECK OK\n", name.c_str());
        return failures.empty() ? 0 : 1;
    }

  private:
    struct Record
    {
        std::string kase, metric;
        double value;
        Style style;
    };
    struct Item
    {
        char kind; // '=' section title, 't' note, 'r' record
        std::string text;
        Record record = {};
    };

    static double
    round(double v, int places)
    {
        double scale = std::pow(10.0, places);
        return std::round(v * scale) / scale;
    }

    static bool
    isSuffix(const std::string &unit)
    {
        return unit == "%" || unit == "x";
    }

    static std::string
    cell(double v, int places, bool sign, const std::string &unit)
    {
        return format(sign ? "%+.*f" : "%.*f", places, v) +
               (isSuffix(unit) ? unit : "");
    }

    /** Whole numbers exactly, others rounded to @p places. */
    static void
    number(obs::JsonWriter &w, double v, int places)
    {
        double r = round(v, places);
        if (r != std::trunc(r) || std::fabs(r) >= 9e18)
            w.value(r);
        else if (r < 0)
            w.value(static_cast<s64>(r));
        else
            w.value(static_cast<u64>(r));
    }

    void
    printJson() const
    {
        for (const Item &it : items) {
            if (it.kind != 'r')
                continue;
            const Record &r = it.record;
            obs::JsonWriter w;
            w.beginObject();
            w.key("schema").value(std::string_view("cheri.bench.v1"));
            w.key("bench").value(std::string_view(name));
            w.key("case").value(std::string_view(r.kase));
            w.key("metric").value(std::string_view(r.metric));
            w.key("unit").value(std::string_view(r.style.unit));
            number(w.key("value"), r.value, r.style.places);
            number(w.key("iqr"), std::max(r.style.iqr, 0.0),
                   r.style.iqrPlaces);
            w.key("deterministic").value(!r.style.host);
            w.endObject();
            std::printf("%s\n", w.str().c_str());
        }
    }

    /** The records of items [first, last) as one table: a row per case
     *  and a column per metric, both in first-seen order, each metric
     *  with a spread followed by an IQR column. */
    void
    printTable(std::size_t first, std::size_t last) const
    {
        std::vector<std::string> rows, cols;
        std::map<std::string, std::set<std::string>> units;
        std::map<std::string, bool> spread;
        std::map<std::pair<std::string, std::string>, const Record *> at;
        for (std::size_t i = first; i < last; ++i) {
            const Record &r = items[i].record;
            if (!std::count(rows.begin(), rows.end(), r.kase))
                rows.push_back(r.kase);
            if (!std::count(cols.begin(), cols.end(), r.metric))
                cols.push_back(r.metric);
            units[r.metric].insert(r.style.unit);
            spread[r.metric] = spread[r.metric] || r.style.iqr >= 0;
            at[{r.kase, r.metric}] = &r;
        }
        std::vector<std::vector<std::string>> grid(rows.size() + 1);
        grid[0].push_back("");
        for (std::size_t j = 0; j < rows.size(); ++j)
            grid[j + 1].push_back(rows[j]);
        for (const std::string &c : cols) {
            // The header names the unit only when every row shares it.
            std::string unit = *units[c].begin();
            bool bare = units[c].size() > 1 || unit == "count" ||
                        isSuffix(unit);
            grid[0].push_back(bare ? c : c + " (" + unit + ")");
            if (spread[c])
                grid[0].push_back("IQR");
            for (std::size_t j = 0; j < rows.size(); ++j) {
                const Record *r = at[{rows[j], c}];
                const Style *s = r ? &r->style : nullptr;
                grid[j + 1].push_back(
                    r ? cell(r->value, s->places, s->sign, s->unit) : "-");
                if (spread[c])
                    grid[j + 1].push_back(
                        s && s->iqr >= 0
                            ? cell(s->iqr, s->iqrPlaces, false, s->unit)
                            : "");
            }
        }
        std::vector<int> width(grid[0].size());
        for (const std::vector<std::string> &line : grid) {
            for (std::size_t k = 0; k < line.size(); ++k)
                width[k] = std::max<int>(width[k], line[k].size());
        }
        for (const std::vector<std::string> &line : grid) {
            std::printf("%-*s", width[0], line[0].c_str());
            for (std::size_t k = 1; k < line.size(); ++k)
                std::printf("  %*s", width[k], line[k].c_str());
            std::printf("\n");
        }
    }

    void
    printHuman() const
    {
        for (std::size_t i = 0; i < items.size();) {
            std::size_t j = i;
            while (j < items.size() && items[j].kind == 'r')
                ++j;
            if (j > i) {
                printTable(i, j);
                i = j;
            } else if (items[i].kind == '=') {
                std::string rule(60, '=');
                std::printf("\n%s====\n%s\n%s\n", rule.c_str(),
                            items[i++].text.c_str(), rule.c_str());
            } else {
                std::printf("%s\n", items[i++].text.c_str());
            }
        }
    }

    std::string name;
    bool json = false;
    bool check = false;
    std::map<std::string, u64> options;
    std::vector<Item> items;
    std::set<std::string> keys;
    std::vector<std::string> failures;
};

} // namespace cheri::bench

#endif // CHERI_BENCH_BENCH_UTIL_H
