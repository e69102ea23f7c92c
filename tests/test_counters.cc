/**
 * @file
 * Counter field lists: every entry of every block's list reaches each
 * consumer that walks it.  One row per entry plants a distinct value
 * and checks that the metrics JSON carries it under the entry's key,
 * that a snapshot save/restore keeps it, and, for the kernel's blocks,
 * that the block sum adds it (or keeps the max, for the high-water
 * mark) and that the record-replay digest sees it change.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "check/diff_fuzzer.h"
#include "check/replay.h"
#include "obs/metrics.h"
#include "os/kernel.h"
#include "os/sched/sched.h"
#include "os/snapshot/snapshot.h"

namespace cheri
{
namespace
{

/** The kernel exposes its counters read-only; the rows plant values
 *  in the (non-const) block itself. */
KernelCounters &
countersOf(Kernel &kern)
{
    return const_cast<KernelCounters &>(kern.counters());
}

/** One field-list entry. */
struct Row
{
    /** The metrics-JSON section and key it is emitted under. */
    std::string section;
    std::string key;
    bool highWater = false;
    /** A value no other row plants. */
    u64 planted = 0;
    /** The field inside a kernel's block; null for a registry field. */
    std::function<u64 &(KernelCounters &)> inKernel;
    /** The field inside a registry; null for a kernel field. */
    std::function<u64 &(obs::Metrics &)> inRegistry;

    u64 &
    in(Kernel &kern, obs::Metrics &mx) const
    {
        return inKernel ? inKernel(countersOf(kern)) : inRegistry(mx);
    }
};

void
PrintTo(const Row &r, std::ostream *os)
{
    *os << r.section << "." << r.key;
}

u64
nextPlanted(const std::vector<Row> &rows)
{
    return 900001 + 1009 * rows.size();
}

template <class S>
void
kernelRows(std::vector<Row> &rows, const char *section,
           S KernelCounters::*block)
{
    for (const CounterField<S> &f : fieldsOf<S>) {
        auto field = [=](KernelCounters &k) -> u64 & {
            return k.*block.*f.member;
        };
        rows.push_back(
            {section, f.key, f.highWater, nextPlanted(rows), field, {}});
    }
}

template <class S>
void
registryRows(std::vector<Row> &rows, const char *section,
             const S &(obs::Metrics::*block)() const)
{
    for (const CounterField<S> &f : fieldsOf<S>) {
        auto field = [=](obs::Metrics &m) -> u64 & {
            return const_cast<S &>((m.*block)()).*f.member;
        };
        rows.push_back(
            {section, f.key, f.highWater, nextPlanted(rows), {}, field});
    }
}

/** Every entry of the kernel's five field lists. */
std::vector<Row>
kernelFieldRows()
{
    std::vector<Row> rows;
    kernelRows(rows, "memory", &KernelCounters::pressure);
    kernelRows(rows, "fd", &KernelCounters::fd);
    kernelRows(rows, "revocation", &KernelCounters::revocation);
    kernelRows(rows, "hardening", &KernelCounters::hardening);
    kernelRows(rows, "sched", &KernelCounters::sched);
    return rows;
}

/** Every entry of the registry's lists: check, snapshot and the u64
 *  part of a cost snapshot.  Planted values continue past the kernel
 *  rows'. */
std::vector<Row>
registryFieldRows()
{
    std::vector<Row> rows = kernelFieldRows();
    const size_t first = rows.size();
    registryRows(rows, "check", &obs::Metrics::check);
    registryRows(rows, "snapshot", &obs::Metrics::snapshot);
    for (const obs::CostField &f : obs::costFields) {
        auto field = [=](obs::Metrics &m) -> u64 & {
            return const_cast<obs::CostSnapshot &>(m.costSnapshots().at(0))
                .*f.member;
        };
        rows.push_back({"cost", f.key, false, nextPlanted(rows), {}, field});
    }
    return {rows.begin() + static_cast<std::ptrdiff_t>(first), rows.end()};
}

/** A kernel with a registry attached, a scheduler (so an image carries
 *  the scheduler counters), one process and one captured cost
 *  snapshot. */
struct Rig
{
    Rig()
    {
        kern.setMetrics(&mx);
        sched::schedulerFor(kern);
        proc = kern.spawn(Abi::CheriAbi, "counters");
        mx.captureCost("rig", proc->cost());
    }

    obs::Metrics mx;
    Kernel kern;
    Process *proc = nullptr;
};

/** The JSON value under top-level @p name: its object or array, by
 *  bracket matching (no key or string in the document holds one). */
std::string
sectionOf(const std::string &json, const std::string &name)
{
    size_t at = json.find("\"" + name + "\":");
    if (at == std::string::npos)
        return "";
    size_t open = at + name.size() + 3;
    int depth = 0;
    for (size_t i = open; i < json.size(); ++i) {
        if (json[i] == '{' || json[i] == '[')
            ++depth;
        else if ((json[i] == '}' || json[i] == ']') && --depth == 0)
            return json.substr(open, i + 1 - open);
    }
    return "";
}

void
expectJsonCarries(const Row &r)
{
    Rig rig;
    r.in(rig.kern, rig.mx) = r.planted;
    std::string sec = sectionOf(rig.mx.toJson(), r.section);
    std::string entry =
        "\"" + r.key + "\":" + std::to_string(r.planted);
    EXPECT_NE(sec.find(entry), std::string::npos)
        << entry << " not in " << r.section << ": " << sec;
}

void
expectRestoreKeeps(const Row &r)
{
    Rig rig;
    r.in(rig.kern, rig.mx) = r.planted;
    std::string err;
    std::vector<u8> img = snap::save(rig.kern, &err);
    ASSERT_FALSE(img.empty()) << err;

    obs::Metrics mx2;
    Kernel kern2;
    kern2.setMetrics(&mx2);
    ASSERT_TRUE(snap::restore(kern2, img, &err)) << err;
    // The restore counts itself in the registry it restored.
    bool countsItself = r.section == "snapshot" && r.key == "restores";
    EXPECT_EQ(r.in(kern2, mx2), r.planted + (countsItself ? 1 : 0));
}

class KernelCounterField : public ::testing::TestWithParam<Row>
{};

class RegistryCounterField : public ::testing::TestWithParam<Row>
{};

TEST_P(KernelCounterField, MetricsJsonCarriesItUnderItsKey)
{
    expectJsonCarries(GetParam());
}

TEST_P(KernelCounterField, SnapshotRestoreKeepsIt)
{
    expectRestoreKeeps(GetParam());
}

TEST_P(KernelCounterField, SumAddsItOrKeepsTheMax)
{
    const Row &r = GetParam();
    KernelCounters a, b;
    r.inKernel(a) = r.planted;
    r.inKernel(b) = 5;
    a += b;
    EXPECT_EQ(r.inKernel(a), r.highWater ? r.planted : r.planted + 5);
    EXPECT_EQ(r.inKernel(b), 5u);
}

TEST_P(KernelCounterField, ReplayDigestSeesIt)
{
    const Row &r = GetParam();
    Rig rig;
    check::ReplaySession rec(check::ReplaySession::Mode::Record);
    rec.quiesce(rig.kern, *rig.proc, 0);
    rec.finish();
    std::vector<u8> log = rec.serialize(check::FuzzOptions{});

    auto replay = [&] {
        check::ReplaySession rp(check::ReplaySession::Mode::Replay);
        std::string err;
        EXPECT_TRUE(rp.load(log, &err)) << err;
        rp.quiesce(rig.kern, *rig.proc, 0);
        rp.finish();
        return rp.divergences();
    };
    EXPECT_TRUE(replay().empty()) << "unchanged kernel diverged";
    r.in(rig.kern, rig.mx) = r.planted;
    std::vector<check::ReplayDivergence> divs = replay();
    ASSERT_EQ(divs.size(), 1u) << "digest blind to " << r.key;
    EXPECT_EQ(divs[0].field, "statsHash");
}

TEST_P(RegistryCounterField, MetricsJsonCarriesItUnderItsKey)
{
    expectJsonCarries(GetParam());
}

TEST_P(RegistryCounterField, SnapshotRestoreKeepsIt)
{
    expectRestoreKeeps(GetParam());
}

std::string
rowName(const ::testing::TestParamInfo<Row> &info)
{
    return info.param.section + "_" + info.param.key;
}

INSTANTIATE_TEST_SUITE_P(AllFields, KernelCounterField,
                         ::testing::ValuesIn(kernelFieldRows()), rowName);
INSTANTIATE_TEST_SUITE_P(AllFields, RegistryCounterField,
                         ::testing::ValuesIn(registryFieldRows()), rowName);

TEST(CounterFieldLists, KernelRowsCoverEveryKernelCounter)
{
    EXPECT_EQ(kernelFieldRows().size() * sizeof(u64),
              sizeof(KernelCounters));
    EXPECT_EQ(registryFieldRows().size(), 4u + 8u + 7u);
}

} // namespace
} // namespace cheri
