/**
 * @file
 * Memoization cache for mapping searches. It holds two record kinds,
 * shared across DSE worker threads through sharded hash maps (one
 * mutex per shard, keys distributed by hash so contention stays low):
 *
 *  - **frontier** entries memoize a whole per-layer mapping frontier,
 *    keyed on (hardware, layer shape, K) at every K including 1: a
 *    hit skips the entire mapping sweep of that layer. Repeated layer
 *    shapes — e.g. ResNet50's repeated bottleneck blocks or the
 *    per-head attention GEMMs — are swept once. A thread-local L0
 *    sits in front of the sharded table.
 *  - **segment** entries (hardware + per-stage layer/slice identity ->
 *    resolved stage mappings + pipelined cost) memoize the
 *    segmentation search the same way.
 *
 * Single tilings are not memoized: runLayerWithEff is a closed-form
 * formula, cheaper to recompute than to look up.
 *
 * Production-scale behaviors (format v6):
 *  - **Bounded memory** — setCapacity() bounds the sharded (L1)
 *    tier by resident bytes and/or entry count; inserts past the
 *    bound trigger epoch-batched, cost-aware LRU eviction
 *    (frontiers first, then segments — LRU order within each
 *    kind), with exact evictions/residentBytes counters.
 *  - **Shared read-mostly tier** — the persistent file is an
 *    mmap-able, offset-based, CRC-covered snapshot holding
 *    open-addressed hash tables, so N processes attachShared() the
 *    same published file and probe it copy-free after an L0+L1
 *    miss. A writer republishes via the tmp+fsync+rename discipline
 *    with a monotonic generation stamp; refreshShared() atomically
 *    remaps when the generation changes.
 *
 * Layer *names* and repeat counts are deliberately excluded from the
 * keys: two layers with identical shapes hit the same entry even
 * when the model zoo lists them as distinct instances.
 */

#ifndef LEGO_DSE_COST_CACHE_HH
#define LEGO_DSE_COST_CACHE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dse/counters.hh"
#include "dse/pareto.hh"
#include "model/layer_class.hh"
#include "sim/perf.hh"
#include "sim/segment_cost.hh"

namespace lego
{
namespace dse
{

/**
 * Canonical serialization of everything a memoized search reads from
 * its inputs (makeFrontierKey, makeSegmentKey). Exact-match equality:
 * a hash collision can never return a wrong result.
 */
struct CacheKey
{
    std::array<std::uint64_t, 32> words{};
    std::uint64_t hashValue = 0; //!< Filled once by the key maker.

    bool operator==(const CacheKey &o) const { return words == o.words; }

    /** 64-bit FNV-1a over the canonical words. */
    std::uint64_t computeHash() const;
};

struct CacheKeyHash
{
    std::size_t operator()(const CacheKey &k) const
    {
        return std::size_t(k.hashValue);
    }
};

/**
 * Build the canonical key of a (hw, layer, K) frontier memo entry:
 * the hardware section (everything but the cosmetic name), the
 * layer's LayerSignature (name and repeat count excluded), then K.
 */
CacheKey makeFrontierKey(const HardwareConfig &hw, const Layer &l,
                         std::size_t k);

/**
 * Exact identity of one pipelined-segment stage as keyed into the
 * cache: the layer's canonical signature plus its slice width. A
 * multi-stage segment cannot fit every stage's full signature into
 * the fixed-width CacheKey, so the segment key carries *hashed*
 * per-stage tags and the stored SegmentRecord carries these exact
 * ids for verification at lookup — a tag collision therefore reads
 * as a miss, never as a wrong result (the cache's exactness
 * contract is preserved).
 */
struct SegmentKeyId
{
    std::array<std::uint64_t, LayerSignature::kWords> sig{};
    std::uint64_t cols = 0;

    bool operator==(const SegmentKeyId &o) const
    {
        return cols == o.cols && sig == o.sig;
    }
};

/** Make the id of one stage. */
SegmentKeyId segmentKeyId(const Layer &l, int cols);

/**
 * Memoized evaluation of one pipelined segment: per-stage resolved
 * mappings/results (under the slice sub-configs) plus the pipelined
 * SegmentCost. A hit skips the per-stage mapping searches AND the
 * pipeline cost evaluation.
 */
struct SegmentRecord
{
    std::vector<SegmentKeyId> id; //!< Verification, one per stage.
    std::vector<Mapping> mappings;
    std::vector<LayerResult> results;
    SegmentCost cost;
};

/**
 * Build the canonical key of a segment memo entry: the hardware
 * section of makeFrontierKey, the stage count, and one hashed tag
 * word per stage (FNV-1a over the stage's SegmentKeyId). Panics past
 * the key's tag-word capacity (18 stages) — far above any sensible
 * SegmentOptions::maxStages.
 */
CacheKey makeSegmentKey(const HardwareConfig &hw,
                        const std::vector<SegmentKeyId> &stages);

/** What CostCache::loadEx found at the path. */
enum class CacheLoadStatus
{
    Loaded,  //!< Entries merged.
    Missing, //!< No file (fresh deployment) — expected cold start.
    Stale,   //!< Valid file from another format version or schema —
             //!< deliberate cold start, NOT corruption.
    Corrupt, //!< Bad magic, failed checksum, truncation, structural
             //!< nonsense — the file cannot be trusted.
};

/** The mmap'd read-mostly snapshot tier (defined in cost_cache.cc);
 *  opaque to clients — CostCache probes it internally. */
class SharedSnapshot;

/**
 * Sharded, thread-safe memo table with a thread-local frontier L0 in
 * front and an optional mmap'd read-mostly snapshot behind, holding
 * frontier (key -> point list) and segment entries.
 *
 * Three levels:
 *  - **L0** — a fixed-size, direct-mapped frontier table in
 *    thread-local storage. The common per-worker re-lookup takes zero
 *    locks: one hash index, one exact key compare. Entries are tagged
 *    with the owning cache's id and clear()-epoch, so a thread
 *    serving several caches (or a cache that was cleared) can never
 *    read a stale result. A stale L0 entry surviving an L1 eviction
 *    is benign: cached values are pure functions of their keys.
 *    Segment entries have no L0.
 *  - **L1** — the sharded mutex-protected tables (one mutex per
 *    shard, keys distributed by hash). This is the level save()
 *    serializes and setCapacity() bounds; L0 is never serialized.
 *  - **Shared** — an optional read-only mmap of a published v6
 *    snapshot (attachShared), probed copy-free after an L1 miss.
 *    Hits promote into L0 only — never into L1 — so the snapshot's
 *    pages stay shared across every process mapping it.
 *
 * Counter contract (exact under any worker count; all relaxed
 * atomics; field names of counters()): every lookupFrontierFast
 * counts exactly one of l0Hits/l0Misses; every L0 miss falls through
 * to one L1 lookup, which counts exactly one of hits/misses — so
 * hits + misses == l0Misses. frontHits == l0Hits + hits and
 * frontMisses == misses count the same lookups at any level. A
 * shared-tier hit counts in BOTH hits and sharedFrontHits
 * (attribution, not a new denominator); misses therefore still means
 * "missed every tier". Segment lookups count segHits/segMisses, and a
 * shared segment hit also sharedSegHits. frontInserts and segInserts
 * count entries actually created (losing racers of a duplicate
 * insert are not counted), so frontInserts + segInserts -
 * evictions == size() on a cache that was never cleared.
 */
class CostCache
{
  public:
    explicit CostCache(int shards = 16);
    ~CostCache();

    /**
     * @name Bounded L1 (eviction)
     * @{
     */

    /**
     * Bound the sharded tier: `maxBytes` caps the total serialized
     * footprint (the exact bytes save() would write per entry, key
     * included), `maxEntries` caps the entry count across both
     * kinds; 0 = unbounded (the default). An insert that exceeds a
     * bound triggers one epoch-batched eviction: entries are ranked
     * (kind priority, last use) — frontiers evicted first, then
     * segments, LRU within each kind — and evicted until the tier is
     * back under 7/8 of each bound, so inserts amortize to O(1)
     * between batches. Rationale: a frontier entry reconstructs from
     * one per-layer sweep, a segment record from whole per-stage
     * searches.
     */
    void setCapacity(std::uint64_t maxBytes,
                     std::uint64_t maxEntries);

    /** @} */

    /** @name Frontier entries (keys from makeFrontierKey) @{ */

    /**
     * Frontier lookup: thread-local L0 first (no locks), then the
     * sharded table and the shared tier (promoting a hit into L0).
     * L1 recency stamps are only refreshed on L0 misses.
     */
    bool lookupFrontierFast(const CacheKey &key,
                            std::vector<FrontierPoint> *out);

    /** Insert a frontier (first writer wins; duplicates are identical
     *  anyway) and fill the caller's L0 slot. */
    void insertFrontierFast(const CacheKey &key,
                            const std::vector<FrontierPoint> &points);

    /** @} */

    /** @name Segment entries (keys from makeSegmentKey) @{ */

    /**
     * Sharded lookup of a memoized segment evaluation. `stages` is
     * the exact per-stage identity the key was built from; a stored
     * record whose id differs (hashed-tag collision) counts as a
     * miss, preserving exactness; `*out` may then have been
     * overwritten.
     */
    bool lookupSegment(const CacheKey &key,
                       const std::vector<SegmentKeyId> &stages,
                       SegmentRecord *out);

    /** Insert a segment record (first writer wins). */
    void insertSegment(const CacheKey &key, const SegmentRecord &rec);

    /** @} */

    /**
     * @name Shared read-mostly tier (mmap'd published snapshots)
     *
     * attachShared(path) remembers the snapshot path and maps it
     * read-only if a valid v6 file is already there (a missing or
     * invalid file just means "not yet published" — the next
     * refreshShared() picks it up). Probes hit the mapped image
     * in place: open-addressed in-file hash tables, no
     * deserialization, pages shared with every other process mapping
     * the same file. refreshShared() re-reads the published header
     * and atomically swaps in a new mapping when the generation
     * stamp changed (counted in counters().remaps); in-flight probes
     * keep using the old mapping until they finish — readers never
     * block writers and vice versa.
     * @{
     */

    /** Attach (and map, if possible) a published snapshot. Returns
     *  true when a snapshot is mapped after the call. */
    bool attachShared(const std::string &path);

    /** Re-check the published generation; remap on change. Returns
     *  true when a new snapshot was mapped by this call. */
    bool refreshShared();

    /** Generation stamp of the currently mapped snapshot (0 = none
     *  mapped). */
    std::uint64_t sharedGeneration() const;

    /** @} */

    /** Exact serialized footprint of the resident L1 entries. */
    std::uint64_t residentBytes() const
    {
        return stats_.load(CounterId::residentBytes);
    }

    /** Snapshot of all counters in one call (exact when no lookup
     *  is concurrently in flight, e.g. between requests on the serve
     *  loop's dispatcher thread). */
    CacheCounters counters() const
    {
        return stats_.read<CacheCounters>();
    }

    /** Resident L1 entry count, both kinds. */
    std::size_t size() const;
    /** Frontier entry count. */
    std::size_t frontierCount() const;
    /** Segment entry count. */
    std::size_t segmentCount() const;
    void clear();

    /**
     * @name Persistence (warm-starting model-zoo sweeps, and the
     * published form of the shared tier)
     *
     * Versioned binary serialization of every frontier and segment
     * entry. The file header carries a magic word, a format
     * version, and a schema hash over the serialized field layout,
     * so a file written by an older build — different version OR
     * different schema — is *rejected* (cold start), never misread.
     * Format v6 is an mmap-able snapshot: a fixed header (with a
     * monotonic generation stamp and header/body CRC32 words),
     * per-kind open-addressed slot tables, fixed-stride entry
     * arrays, and a variable-length heap — the same bytes serve
     * loadEx() (merge into L1) and attachShared() (probe in place).
     * save() fsyncs the temp file before the rename — a crash at any
     * point leaves either the old valid file or the new valid file,
     * never a torn one. Entries are host-endian; the magic word
     * doubles as the endianness check.
     * @{
     */

    /** Hash of the serialized key/record/header layout. */
    static std::uint64_t schemaHash();

    /** On-disk format version save() writes and load() requires —
     *  surfaced so build stamps (obs::buildInfo) and perf artifacts
     *  can attribute cache files to the format that wrote them. */
    static std::uint64_t fileFormatVersion();

    /**
     * Write all entries to `path`: serialize to a sibling temp file,
     * fsync it, rename over the target, then fsync the directory —
     * crash-durable at every step. The written generation stamp is
     * the current file's generation + 1 (1 on a fresh path), so
     * attached readers observe every publish (single-writer
     * protocol; see serve/README.md "Multi-process deployment").
     * False on any I/O failure (the previous file at `path` is left
     * untouched).
     */
    bool save(const std::string &path) const;

    /**
     * Merge entries from `path` into the cache (first writer wins,
     * as with insert), reporting WHY a file was not loaded: Missing
     * (no file), Stale (valid but another version/schema — a
     * deliberate cold start), or Corrupt (bad magic, checksum or
     * structural failure). The cache is untouched unless Loaded;
     * hit/miss counters are never affected.
     */
    CacheLoadStatus loadEx(const std::string &path);

    /** loadEx() == Loaded — the status-blind convenience form. */
    bool load(const std::string &path);

    /**
     * loadEx(), but a Corrupt file is additionally set aside by
     * renaming it to `path + ".corrupt"` (best-effort) and counted
     * in quarantined(), so the next save() starts from a clean slate
     * and the evidence survives for inspection instead of being
     * overwritten.
     */
    CacheLoadStatus loadOrQuarantine(const std::string &path);

    /** @} */

  private:
    /** One L1 entry: the value plus its recency stamp and exact
     *  serialized footprint (key included) for eviction ranking and
     *  byte accounting. */
    template <class V>
    struct Entry
    {
        V val;
        std::uint64_t lastUse = 0;
        std::uint64_t bytes = 0;
    };

    struct Shard
    {
        std::mutex mu;
        std::unordered_map<CacheKey, Entry<std::vector<FrontierPoint>>,
                           CacheKeyHash>
            fronts;
        std::unordered_map<CacheKey, Entry<SegmentRecord>,
                           CacheKeyHash>
            segs;
    };

    Shard &shardFor(const CacheKey &key);

    /** Record-kind traits (defined in cost_cache.cc): one each for
     *  frontier and segment entries. Every L1, file and eviction path
     *  below is written once, generic over the kind. */
    struct FrontierKind;
    struct SegmentKind;
    /** The v6 image validator/decoder walks the kinds too. */
    friend class CacheImage;

    /** Call f(K{}) for each kind, in file order. */
    template <class F>
    static void forEachKind(F &&f);

    template <class K>
    bool lookupIn(const CacheKey &key, const typename K::Check &check,
                  typename K::Value *out);
    template <class K>
    void insertIn(const CacheKey &key, const typename K::Value &val);
    template <class K>
    std::size_t countIn() const;

    /** Next global recency stamp (relaxed; ordering between stamps
     *  taken under different shard locks only matters to eviction
     *  ranking, where approximate interleaving is acceptable). */
    std::uint64_t tick()
    {
        return tick_.fetch_add(1, std::memory_order_relaxed);
    }

    bool overCapacity() const;
    /** One epoch-batched eviction pass (serialized on evictMu_). */
    void enforceCapacity();

    /** Mutex-protected copy of the current snapshot pointer (null
     *  when none is mapped). */
    std::shared_ptr<const SharedSnapshot> sharedSnapshot() const;
    /** Map `sharedPath_` and swap it in if its generation differs
     *  from the mapped one. Returns true on a fresh map. */
    bool mapShared(bool countRemap);

    std::vector<std::unique_ptr<Shard>> shards_;
    /** Process-unique instance id tagged into L0 slots. */
    std::uint64_t id_;
    /** Bumped by clear() so stale L0 entries die everywhere. */
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::uint64_t> tick_{0};

    /** Capacity bounds (0 = unbounded) and exact usage gauges. */
    std::atomic<std::uint64_t> maxBytes_{0};
    std::atomic<std::uint64_t> maxEntries_{0};
    std::atomic<std::uint64_t> entryCount_{0};
    /** Serializes eviction batches (inserts from other threads
     *  proceed concurrently; they just can't start a second batch). */
    std::mutex evictMu_;

    /** Shared-tier state: the snapshot pointer swaps under
     *  sharedMu_; probes copy the shared_ptr and read lock-free. */
    mutable std::mutex sharedMu_;
    std::string sharedPath_;
    std::shared_ptr<const SharedSnapshot> shared_;
    std::atomic<bool> sharedAttached_{false};

    /** Every Cache row of counters.hh, gauges included. */
    CounterBlock stats_;
};

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_COST_CACHE_HH
