/**
 * @file
 * Production-scale CostCache behaviors: bounded-memory LRU eviction
 * (capacity boundaries, eviction order, exact counters, warm-hit
 * survival), the v6 on-disk format's compatibility classification
 * against committed fixtures (v4 and v5 → Stale cold start, corrupt
 * v6 → byte-verbatim quarantine), and the mmap'd shared read-mostly tier
 * (attach, copy-free probes, generation-stamped atomic remap,
 * per-request attribution through dse::StatsContext).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "dse/stats_scope.hh"
#include "lego.hh"

namespace lego
{
namespace
{

using dse::CacheCounters;
using dse::CacheKey;
using dse::CacheLoadStatus;
using dse::CostCache;
using dse::CounterId;
using dse::StatsContext;

/** Serialized footprint of one single-point frontier entry: 32 key
 *  words, point count and heap offset, 11 point words (must match the
 *  save() layout — the eviction byte accounting is defined as exactly
 *  what save() would write). */
constexpr std::uint64_t kFrontierBytes = (32 + 2 + 11) * 8;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
fileExists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

bool
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    std::ofstream out(to, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    return static_cast<bool>(in) && static_cast<bool>(out);
}

/** A synthetic frontier key: distinct, hash-correct, hardware-free —
 *  eviction mechanics don't care what the words mean. */
CacheKey
syntheticKey(std::uint64_t n)
{
    CacheKey k;
    k.words[0] = n + 1;
    k.words[1] = n * 2654435761ull;
    k.hashValue = k.computeHash();
    return k;
}

/** A single-point frontier. */
std::vector<dse::FrontierPoint>
syntheticFrontier(std::uint64_t n)
{
    dse::FrontierPoint p;
    p.result.cycles = Int(n + 100);
    p.result.energyPj = double(n) * 1.5;
    p.result.macs = Int(n);
    p.seq = n;
    return {p};
}

/** Run `f` on a new thread. L0 is thread-local, so a fresh thread's
 *  lookups all reach L1: they refresh its recency stamps, and they
 *  cannot be answered by an L0 copy of an entry L1 evicted. */
template <class F>
void
onFreshThread(F &&f)
{
    std::thread t(std::forward<F>(f));
    t.join();
}

TEST(CacheEviction, EntryExactlyAtCapacityIsNotEvicted)
{
    CostCache cache;
    cache.setCapacity(kFrontierBytes * 4, 0);
    for (std::uint64_t i = 0; i < 4; ++i)
        cache.insertFrontierFast(syntheticKey(i), syntheticFrontier(i));
    // Exactly AT the byte bound: the contract is "evict past", not
    // "evict at" — a capacity equal to the working set must hold it.
    EXPECT_EQ(cache.residentBytes(), kFrontierBytes * 4);
    EXPECT_EQ(cache.counters().evictions, 0u);
    EXPECT_EQ(cache.size(), 4u);

    // One entry beyond trips a batch: down to <= 7/8 of the bound.
    cache.insertFrontierFast(syntheticKey(4), syntheticFrontier(4));
    EXPECT_GT(cache.counters().evictions, 0u);
    EXPECT_LE(cache.residentBytes(),
              kFrontierBytes * 4 - (kFrontierBytes * 4) / 8);
    const CacheCounters c = cache.counters();
    EXPECT_EQ(c.frontInserts + c.segInserts - c.evictions, cache.size());
}

TEST(CacheEviction, LruOrderRespectsLookupRecency)
{
    CostCache cache;
    for (std::uint64_t i = 0; i < 8; ++i)
        cache.insertFrontierFast(syntheticKey(i), syntheticFrontier(i));
    // Refresh 0..3 from a fresh thread — recency is an L1 property
    // (L0 hits deliberately don't touch L1 stamps), and this thread's
    // L0 holds every entry it inserted.
    std::vector<dse::FrontierPoint> out;
    onFreshThread([&] {
        for (std::uint64_t i = 0; i < 4; ++i)
            ASSERT_TRUE(cache.lookupFrontierFast(syntheticKey(i), &out));
    });

    // Bound to 5 entries: the batch evicts down to 7/8 * 5 = 5, so
    // exactly the 3 least-recently-used (4, 5, 6) go.
    cache.setCapacity(0, 5);
    EXPECT_EQ(cache.counters().evictions, 3u);
    EXPECT_EQ(cache.size(), 5u);
    onFreshThread([&] {
        for (std::uint64_t i : {4ull, 5ull, 6ull})
            EXPECT_FALSE(cache.lookupFrontierFast(syntheticKey(i), &out))
                << i;
        for (std::uint64_t i : {0ull, 1ull, 2ull, 3ull, 7ull})
            EXPECT_TRUE(cache.lookupFrontierFast(syntheticKey(i), &out))
                << i;
    });
}

TEST(CacheEviction, CountersStayExactUnderTwoThreadInterleaving)
{
    CostCache cache;
    cache.setCapacity(kFrontierBytes * 64, 0);
    // Two threads interleave disjoint lookup/insert traffic far past
    // capacity; whatever the interleaving, the accounting identities
    // must hold exactly afterwards.
    auto worker = [&](std::uint64_t base) {
        std::vector<dse::FrontierPoint> out;
        for (std::uint64_t i = 0; i < 600; ++i) {
            const CacheKey k = syntheticKey(base + i);
            if (!cache.lookupFrontierFast(k, &out))
                cache.insertFrontierFast(k, syntheticFrontier(base + i));
            if (i % 3 == 0)
                cache.lookupFrontierFast(syntheticKey(base + i / 2), &out);
        }
    };
    std::thread a(worker, 0), b(worker, 10000);
    a.join();
    b.join();
    EXPECT_GT(cache.counters().evictions, 0u);
    const CacheCounters c = cache.counters();
    EXPECT_EQ(c.frontInserts + c.segInserts - c.evictions, cache.size());
    EXPECT_EQ(cache.residentBytes(), cache.size() * kFrontierBytes);
    EXPECT_LE(cache.residentBytes(), kFrontierBytes * 64);
}

TEST(CacheEviction, WarmFrontierHitRateSurvivesBoundedReplay)
{
    // Frontier-valued replays at K = 4 on the MN/IC-OC default: LeNet,
    // and the MobileNetV2 + EfficientNetV2 + BERT zoo.
    HardwareConfig hw;
    const Model lenet = makeLeNet();
    const Model mbv2 = makeMobileNetV2();
    const Model effnet = makeEfficientNetV2();
    const Model bert = makeBert();
    const std::vector<std::vector<const Model *>> cases = {
        {&lenet}, {&mbv2, &effnet, &bert}};
    // The cap this replay ran under while every tiling was memoized
    // too (half of that era's 598,128 B zoo working set).
    constexpr std::uint64_t kHitRateCapBytes = 299064;

    using Fronts = std::vector<std::vector<dse::MappingFrontier>>;
    for (const std::vector<const Model *> &zoo : cases) {
        SCOPED_TRACE(zoo.size() == 1 ? zoo[0]->name : "zoo");
        auto replay = [&](dse::Evaluator &ev) {
            Fronts out;
            for (const Model *m : zoo)
                out.push_back(ev.mapModelFrontier(hw, *m, 4));
            return out;
        };
        // Warm replays run on a FRESH thread: L0 is thread-local, so
        // the calling thread's L0 would answer them and the bounded
        // L1 under test would never be read. Returns the replay's
        // frontier hit rate.
        auto warmReplay = [&](CostCache &cache, dse::Evaluator &ev,
                              Fronts *warm) {
            const CacheCounters before = cache.counters();
            onFreshThread([&] { *warm = replay(ev); });
            const CacheCounters d = cache.counters() - before;
            EXPECT_GT(d.frontHits + d.frontMisses, 0u);
            return double(d.frontHits) /
                   double(std::max<std::uint64_t>(
                       1, d.frontHits + d.frontMisses));
        };

        // Unbounded baseline: how many bytes the replay keeps
        // resident, which frontiers it finds, and its warm hit rate.
        CostCache unbounded;
        dse::Evaluator unboundedEv(&unbounded);
        const Fronts ideal = replay(unboundedEv);
        const std::uint64_t full = unbounded.residentBytes();
        ASSERT_GT(full, 0u);
        Fronts warm;
        const double idealRate =
            warmReplay(unbounded, unboundedEv, &warm);

        // A bound that holds the working set keeps every warm frontier
        // lookup in memory. The fixed cap is such a bound today (the
        // zoo's working set is 21,136 B); should the working set
        // outgrow it, the fixed-cap case stops meaning this and fails.
        ASSERT_LE(full, kHitRateCapBytes);
        for (std::uint64_t cap : {full, kHitRateCapBytes}) {
            CostCache bounded;
            bounded.setCapacity(cap, 0);
            dse::Evaluator ev(&bounded);
            replay(ev);
            const double rate = warmReplay(bounded, ev, &warm);
            EXPECT_EQ(bounded.counters().evictions, 0u) << cap;
            EXPECT_EQ(rate, 1.0) << cap; // 100% warm frontier hits.
            EXPECT_GE(rate, idealRate - 0.10) << cap;
        }

        // Replay at HALF the working set (the "2x over capacity"
        // shape): the bound is real and respected, and whatever the
        // evictions cost in re-sweeps, every answer equals the
        // unbounded one.
        CostCache bounded;
        bounded.setCapacity(full / 2, 0);
        dse::Evaluator ev(&bounded);
        replay(ev); // Cold: fills + evicts.
        EXPECT_GT(bounded.counters().evictions, 0u);
        EXPECT_LE(bounded.residentBytes(), full / 2);
        warmReplay(bounded, ev, &warm);
        ASSERT_EQ(warm.size(), ideal.size());
        for (std::size_t m = 0; m < warm.size(); ++m) {
            ASSERT_EQ(warm[m].size(), ideal[m].size()) << m;
            for (std::size_t l = 0; l < warm[m].size(); ++l) {
                ASSERT_EQ(warm[m][l].size(), ideal[m][l].size())
                    << m << "/" << l;
                for (std::size_t p = 0; p < warm[m][l].size(); ++p) {
                    const dse::FrontierPoint &a = warm[m][l].points()[p];
                    const dse::FrontierPoint &b =
                        ideal[m][l].points()[p];
                    EXPECT_EQ(a.seq, b.seq) << m << "/" << l;
                    EXPECT_EQ(a.result.cycles, b.result.cycles)
                        << m << "/" << l;
                    EXPECT_EQ(a.result.energyPj, b.result.energyPj)
                        << m << "/" << l;
                }
            }
        }
    }
}

/** Load a committed fixture of an older format: a deliberate cold
 *  start (Stale), never treated as damage — the file must survive
 *  untouched, with no quarantine side effects. */
void
expectStaleNeverQuarantined(const std::string &name)
{
    const std::string fixture =
        std::string(LEGO_SOURCE_DIR) + "/tests/fixtures/" + name;
    const std::string path = testing::TempDir() + "lego_compat_" + name;
    ASSERT_TRUE(copyFile(fixture, path));

    CostCache cache;
    EXPECT_EQ(cache.loadOrQuarantine(path), CacheLoadStatus::Stale);
    EXPECT_EQ(cache.counters().quarantined, 0u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".corrupt"));
    EXPECT_EQ(slurp(path), slurp(fixture)); // Byte-untouched.
    std::remove(path.c_str());
}

TEST(CacheCompat, V4FixtureIsStaleNeverQuarantined)
{
    expectStaleNeverQuarantined("cache_v4.bin");
}

TEST(CacheCompat, V5FixtureIsStaleNeverQuarantined)
{
    expectStaleNeverQuarantined("cache_v5_golden.bin");
}

TEST(CacheCompat, CorruptV6FixtureQuarantinesByteVerbatim)
{
    const std::string fixture = std::string(LEGO_SOURCE_DIR) +
                                "/tests/fixtures/cache_v6_corrupt.bin";
    const std::string path =
        testing::TempDir() + "lego_cache_v6_compat.bin";
    const std::string aside = path + ".corrupt";
    ASSERT_TRUE(copyFile(fixture, path));
    std::remove(aside.c_str());

    CostCache cache;
    EXPECT_EQ(cache.loadOrQuarantine(path), CacheLoadStatus::Corrupt);
    EXPECT_EQ(cache.counters().quarantined, 1u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(fileExists(path)); // Moved aside, not deleted.
    ASSERT_TRUE(fileExists(aside));
    // The quarantined bytes are the damaged file verbatim — the
    // post-mortem evidence contract.
    EXPECT_EQ(slurp(aside), slurp(fixture));
    std::remove(aside.c_str());
}

// ---- v6 golden image ---------------------------------------------------

/** Every key of the golden fill, per kind. */
struct GoldenKeys
{
    std::vector<CacheKey> fronts;
    std::vector<CacheKey> segs;
    std::vector<std::vector<dse::SegmentKeyId>> segStages;
};

LayerResult
goldenResult(std::uint64_t n)
{
    LayerResult r;
    r.cycles = Int(1000 + 37 * n);
    r.utilization = 0.125 + double(n) / 64.0;
    r.dramBytes = Int(4096 + 11 * n);
    r.energyPj = 3.75 * double(n + 1);
    r.macs = Int(512 * (n + 1));
    r.memoryBound = n % 2 == 1;
    return r;
}

/**
 * Deterministic fill with both record kinds: five frontiers of one to
 * three points, a 2-stage and a 3-stage segment. Keys are chosen so
 * no shard holds two entries of one kind: loadEx re-inserts
 * in file order and an unordered_map's in-bucket order depends on
 * insertion order, so only then does load -> save round-trip the
 * bytes exactly.
 */
GoldenKeys
fillGolden(CostCache *cache)
{
    constexpr std::uint64_t kShards = 16; // CostCache's default.
    HardwareConfig hw;
    const Model m = makeLeNet();
    GoldenKeys keys;
    auto distinctShard = [&](const std::vector<CacheKey> &taken,
                             const CacheKey &k) {
        for (const CacheKey &t : taken)
            if (t.hashValue % kShards == k.hashValue % kShards)
                return false;
        return true;
    };

    for (std::uint64_t n = 0; keys.fronts.size() < 5; ++n) {
        const CacheKey k = dse::makeFrontierKey(
            hw, m.layers[n % m.layers.size()], 1 + n / m.layers.size());
        if (!distinctShard(keys.fronts, k))
            continue;
        std::vector<dse::FrontierPoint> pts(1 + keys.fronts.size() % 3);
        for (std::size_t p = 0; p < pts.size(); ++p) {
            pts[p].mapping.dataflow = DataflowTag(p % 4);
            pts[p].mapping.tm = Int(32 + p);
            pts[p].mapping.tn = Int(16 * (p + 1));
            pts[p].mapping.tk = Int(8 + keys.fronts.size());
            pts[p].result = goldenResult(10 * keys.fronts.size() + p);
            pts[p].seq = 7 * p + keys.fronts.size();
        }
        cache->insertFrontierFast(k, pts);
        keys.fronts.push_back(k);
    }
    for (std::size_t stages : {2u, 3u}) {
        for (std::uint64_t first = 0;; ++first) {
            std::vector<dse::SegmentKeyId> ids;
            for (std::size_t st = 0; st < stages; ++st)
                ids.push_back(dse::segmentKeyId(
                    m.layers[(first + st) % m.layers.size()],
                    int(4 + st + first)));
            const CacheKey k = dse::makeSegmentKey(hw, ids);
            if (!distinctShard(keys.segs, k))
                continue;
            dse::SegmentRecord rec;
            rec.id = ids;
            for (std::size_t st = 0; st < stages; ++st) {
                Mapping map;
                map.dataflow = DataflowTag((st + 1) % 4);
                map.tk = Int(24 + st);
                rec.mappings.push_back(map);
                rec.results.push_back(goldenResult(40 + st + stages));
            }
            rec.cost.feasible = true;
            rec.cost.cycles = Int(9000 + stages);
            rec.cost.energyPj = 123.5 * double(stages);
            rec.cost.dramBytes = 777;
            rec.cost.bufferBytes = 2048;
            rec.cost.nocBytes = Int(64 * stages);
            rec.cost.nocEnergyPj = 0.5;
            rec.cost.sramEnergyPj = 1.25;
            rec.cost.dramBytesSaved = 333;
            cache->insertSegment(k, rec);
            keys.segs.push_back(k);
            keys.segStages.push_back(ids);
            break;
        }
    }
    return keys;
}

void
expectSameResult(const LayerResult &a, const LayerResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.memoryBound, b.memoryBound);
}

void
expectSameMapping(const Mapping &a, const Mapping &b)
{
    EXPECT_EQ(a.dataflow, b.dataflow);
    EXPECT_EQ(a.tm, b.tm);
    EXPECT_EQ(a.tn, b.tn);
    EXPECT_EQ(a.tk, b.tk);
}

TEST(CacheCompat, V6GoldenImageRoundTripsByteForByte)
{
    const std::string fixture = std::string(LEGO_SOURCE_DIR) +
                                "/tests/fixtures/cache_v6_golden.bin";
    const std::string golden = slurp(fixture);
    ASSERT_FALSE(golden.empty());
    const std::string path =
        testing::TempDir() + "lego_cache_v6_golden.bin";

    // A fresh fill saved to a fresh path (generation 1) is the
    // fixture, byte for byte: the v6 layout has not drifted.
    CostCache filled;
    const GoldenKeys keys = fillGolden(&filled);
    std::remove(path.c_str());
    ASSERT_TRUE(filled.save(path));
    EXPECT_EQ(slurp(path), golden);

    // Loading the fixture and saving it again reproduces it too.
    CostCache loaded;
    ASSERT_EQ(loaded.loadEx(fixture), CacheLoadStatus::Loaded);
    EXPECT_EQ(loaded.size(), keys.fronts.size() + keys.segs.size());
    EXPECT_EQ(loaded.frontierCount(), keys.fronts.size());
    EXPECT_EQ(loaded.segmentCount(), keys.segs.size());
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.save(path));
    EXPECT_EQ(slurp(path), golden);
    std::remove(path.c_str());

    // The merge path (loadEx) and the in-place probe (attachShared)
    // decode identical records for every key.
    CostCache mapped;
    ASSERT_TRUE(mapped.attachShared(fixture));
    for (const CacheKey &k : keys.fronts) {
        std::vector<dse::FrontierPoint> a, b;
        ASSERT_TRUE(loaded.lookupFrontierFast(k, &a));
        ASSERT_TRUE(mapped.lookupFrontierFast(k, &b));
        ASSERT_EQ(a.size(), b.size());
        ASSERT_GE(a.size(), 1u);
        for (std::size_t p = 0; p < a.size(); ++p) {
            expectSameMapping(a[p].mapping, b[p].mapping);
            expectSameResult(a[p].result, b[p].result);
            EXPECT_EQ(a[p].seq, b[p].seq);
        }
    }
    for (std::size_t i = 0; i < keys.segs.size(); ++i) {
        dse::SegmentRecord a, b;
        ASSERT_TRUE(loaded.lookupSegment(keys.segs[i],
                                         keys.segStages[i], &a));
        ASSERT_TRUE(mapped.lookupSegment(keys.segs[i],
                                         keys.segStages[i], &b));
        EXPECT_TRUE(a.id == b.id);
        ASSERT_EQ(a.mappings.size(), b.mappings.size());
        ASSERT_EQ(a.results.size(), b.results.size());
        for (std::size_t st = 0; st < a.mappings.size(); ++st) {
            expectSameMapping(a.mappings[st], b.mappings[st]);
            expectSameResult(a.results[st], b.results[st]);
        }
        EXPECT_EQ(a.cost.feasible, b.cost.feasible);
        EXPECT_EQ(a.cost.cycles, b.cost.cycles);
        EXPECT_EQ(a.cost.energyPj, b.cost.energyPj);
        EXPECT_EQ(a.cost.dramBytes, b.cost.dramBytes);
        EXPECT_EQ(a.cost.bufferBytes, b.cost.bufferBytes);
        EXPECT_EQ(a.cost.nocBytes, b.cost.nocBytes);
        EXPECT_EQ(a.cost.nocEnergyPj, b.cost.nocEnergyPj);
        EXPECT_EQ(a.cost.sramEnergyPj, b.cost.sramEnergyPj);
        EXPECT_EQ(a.cost.dramBytesSaved, b.cost.dramBytesSaved);
    }
    EXPECT_EQ(mapped.counters().sharedFrontHits, keys.fronts.size());
    EXPECT_EQ(mapped.counters().sharedSegHits, keys.segs.size());
}

/** Writer cache with both entry kinds, saved to `path`. */
void
publishSnapshot(const std::string &path, CostCache *cache)
{
    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0; // Starved DRAM: segments form.
    Model m = makeLeNet();
    dse::Evaluator ev(cache);
    ev.mapModel(hw, m);
    ev.mapModelFrontier(hw, m, 4);
    SegmentOptions sopt;
    sopt.enable = true;
    dse::searchSegments(hw, m, ev, sopt);
    ASSERT_GT(cache->size(), 0u);
    ASSERT_GT(cache->frontierCount(), 0u);
    ASSERT_GT(cache->segmentCount(), 0u);
    ASSERT_TRUE(cache->save(path));
}

TEST(SharedCache, ReaderServesEntirelyFromMappedSnapshot)
{
    const std::string path =
        testing::TempDir() + "lego_shared_snapshot.bin";
    std::remove(path.c_str());
    CostCache writer;
    publishSnapshot(path, &writer);

    // Reader: empty L0/L1, warmth only through the mapped tier.
    CostCache reader;
    ASSERT_TRUE(reader.attachShared(path));
    EXPECT_EQ(reader.sharedGeneration(), 1u);

    HardwareConfig hw;
    hw.dram.bandwidthGBs = 4.0;
    Model m = makeLeNet();
    dse::Evaluator ev(&reader);
    ScheduleResult viaShared = ev.mapModel(hw, m);
    EXPECT_EQ(ev.counters().modelEvals, 0u)
        << "every evaluation should have come from the snapshot";
    EXPECT_GT(reader.counters().sharedFrontHits, 0u);
    // Shared hits never copy into L1 (pages must stay shared):
    // inserts would be the tell.
    EXPECT_EQ(reader.counters().frontInserts, 0u);
    EXPECT_EQ(reader.residentBytes(), 0u);

    // K > 1 frontiers and segments probe the snapshot too.
    const dse::CacheCounters before = reader.counters();
    ev.mapModelFrontier(hw, m, 4);
    SegmentOptions sopt;
    sopt.enable = true;
    dse::searchSegments(hw, m, ev, sopt);
    const dse::CacheCounters delta = reader.counters() - before;
    EXPECT_GT(delta.sharedFrontHits, 0u);
    EXPECT_GT(delta.sharedSegHits, 0u);
    EXPECT_EQ(delta.frontMisses, 0u);

    // And the answers are the writer's, bit for bit.
    dse::Evaluator wev(&writer);
    EXPECT_TRUE(sameSchedule(viaShared, wev.mapModel(hw, m)));
    std::remove(path.c_str());
}

TEST(SharedCache, GenerationChangeRemapsAtomically)
{
    const std::string path =
        testing::TempDir() + "lego_shared_remap.bin";
    std::remove(path.c_str());
    CostCache writer;
    HardwareConfig hw;
    Model m = makeLeNet();
    {
        dse::Evaluator ev(&writer);
        ev.mapModel(hw, m);
    }
    ASSERT_TRUE(writer.save(path));

    CostCache reader;
    ASSERT_TRUE(reader.attachShared(path));
    EXPECT_EQ(reader.sharedGeneration(), 1u);
    // No republish → refresh is a cheap no-op (header read only).
    EXPECT_FALSE(reader.refreshShared());
    EXPECT_EQ(reader.counters().remaps, 0u);

    // Idempotent republish (identical content) keeps the generation:
    // readers must not churn mappings for bytes they already have.
    ASSERT_TRUE(writer.save(path));
    EXPECT_FALSE(reader.refreshShared());
    EXPECT_EQ(reader.sharedGeneration(), 1u);

    // A real republish (new frontier entries) bumps the generation
    // and the reader atomically remaps on its next refresh.
    {
        dse::Evaluator ev(&writer);
        ev.mapModelFrontier(hw, m, 4);
    }
    ASSERT_TRUE(writer.save(path));
    EXPECT_TRUE(reader.refreshShared());
    EXPECT_EQ(reader.sharedGeneration(), 2u);
    EXPECT_EQ(reader.counters().remaps, 1u);

    // The new entries are visible through the new mapping.
    std::vector<dse::FrontierPoint> pts;
    EXPECT_TRUE(reader.lookupFrontierFast(
        dse::makeFrontierKey(hw, m.layers[0], 4), &pts));
    EXPECT_GT(reader.counters().sharedFrontHits, 0u);
    std::remove(path.c_str());
}

TEST(SharedCache, StatsContextAttributesEvictionsAndSharedHits)
{
    const std::string path =
        testing::TempDir() + "lego_shared_attrib.bin";
    std::remove(path.c_str());
    CostCache writer;
    for (std::uint64_t i = 0; i < 8; ++i)
        writer.insertFrontierFast(syntheticKey(i), syntheticFrontier(i));
    ASSERT_TRUE(writer.save(path));

    // The per-request idiom: both the shared-tier hit and the
    // eviction land in the installed context, exactly — this is what
    // keeps serve's per-request stats exact under overlap.
    CostCache reader;
    ASSERT_TRUE(reader.attachShared(path));
    StatsContext ctx;
    StatsContext::Scope scope(&ctx);
    std::vector<dse::FrontierPoint> out;
    ASSERT_TRUE(reader.lookupFrontierFast(syntheticKey(3), &out));
    EXPECT_EQ(ctx.load(CounterId::sharedFrontHits), 1u);
    // Attribution, not a new denominator.
    EXPECT_EQ(ctx.load(CounterId::hits), 1u);
    reader.setCapacity(0, 4);
    for (std::uint64_t i = 100; i < 110; ++i)
        reader.insertFrontierFast(syntheticKey(i), syntheticFrontier(i));
    EXPECT_GT(ctx.load(CounterId::evictions), 0u);
    EXPECT_EQ(ctx.load(CounterId::evictions),
              reader.counters().evictions);
    std::remove(path.c_str());
}

} // namespace
} // namespace lego
