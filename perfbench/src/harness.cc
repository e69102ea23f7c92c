#include "harness.h"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::map<std::string, Tracer::Total>
Tracer::passTotals() const
{
    std::vector<u64> childNs(spans.size(), 0);
    for (const Record &r : spans) {
        if (r.parent >= 0)
            childNs[r.parent] += r.end - r.start;
    }
    // name -> item -> pass -> that pass's figures for the item.
    std::map<std::string, std::map<u64, std::map<u64, Total>>> per;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Record &r = spans[i];
        u64 d = r.end - r.start;
        Total &t = per[r.name][r.item][r.pass];
        t.ns += static_cast<double>(d);
        t.selfNs += static_cast<double>(d - std::min(d, childNs[i]));
        ++t.count;
    }
    std::map<std::string, Total> out;
    for (const auto &[name, items] : per) {
        Total &t = out[name];
        for (const auto &[item, passes] : items) {
            std::vector<double> ns, self;
            for (const auto &[pass, p] : passes) {
                ns.push_back(p.ns);
                self.push_back(p.selfNs);
            }
            t.ns += fastest(std::move(ns));
            t.selfNs += fastest(std::move(self));
            t.count += passes.begin()->second.count;
        }
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    u64 t0 = spans.empty() ? 0 : spans.front().start;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Record &r = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"item\":%llu,"
                     "\"pass\":%llu,\"span\":%zu,\"parent\":%d}}\n",
                     i ? "," : "", r.name,
                     static_cast<double>(r.start - t0) / 1e3,
                     static_cast<double>(r.end - r.start) / 1e3,
                     static_cast<unsigned long long>(r.item),
                     static_cast<unsigned long long>(r.pass), i, r.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

double
fastest(std::vector<double> v)
{
    if (v.empty())
        return 0;
    size_t n = std::min<size_t>(3, v.size());
    std::partial_sort(v.begin(), v.begin() + n, v.end());
    double sum = 0;
    for (size_t i = 0; i < n; ++i)
        sum += v[i];
    return sum / static_cast<double>(n);
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

double
meanMs(const std::map<std::string, Tracer::Total> &spans, const char *name)
{
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0)
        return 0;
    return it->second.ns / 1e6 / it->second.count;
}

double
totalNs(const std::map<std::string, Tracer::Total> &spans, const char *name)
{
    auto it = spans.find(name);
    return it == spans.end() ? 0 : it->second.ns;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

u64
sumCount(const std::vector<Outcome> &v, const std::string &key)
{
    u64 s = 0;
    for (const Outcome &o : v) {
        auto it = o.counts.find(key);
        if (it != o.counts.end())
            s += it->second;
    }
    return s;
}

} // namespace perfbench
