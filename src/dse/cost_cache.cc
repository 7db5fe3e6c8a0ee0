#include "dse/cost_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <tuple>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "dse/stats_scope.hh"
#include "model/layer_class.hh"
#include "obs/failpoint.hh"
#include "obs/trace.hh"

namespace lego
{
namespace dse
{

namespace
{

std::uint64_t
doubleBits(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

double
bitsDouble(std::uint64_t u)
{
    double d = 0;
    std::memcpy(&d, &u, sizeof(d));
    return d;
}

/**
 * Canonical description of everything a cache file stores, in field
 * order. Any change to makeCacheKey's layout or to the serialized
 * LayerResult/FrontierPoint fields MUST be reflected here so that
 * stale files are rejected instead of misread.
 */
const char kCacheFileSchema[] =
    "CacheKey{words[32]:hw13{rows,cols,l1Kb,freqGhz,dram.bandwidthGBs,"
    "dram.energyPerBytePj,dram.burstBytes,numPpus,dataBits,l2X,l2Y,"
    "naiveFusion,dataflows4b<=16},0-padded}"
    "FrontierKey{hw13,sig15{kind,n,ic,oc,oh,ow,kh,kw,stride,m,k,nOut,"
    "batchAmortized,ppu,elems},K}"
    "LayerResult{cycles,utilization,dramBytes,energyPj,macs,"
    "memoryBound}"
    "FrontierPoint{dataflow,tm,tn,tk,LayerResult,seq}"
    "SegmentKey{hw13,stageCount,tag[stageCount]}"
    "SegmentStage{sig15,cols,mapping4,LayerResult}"
    "SegmentCost{feasible,cycles,energyPj,dramBytes,bufferBytes,"
    "nocBytes,nocEnergyPj,sramEnergyPj,dramBytesSaved}"
    "Header12{magic,version,schema,generation,slots/count x2,"
    "heapWords,totalWords,bodyCrc32,headerCrc32}"
    "SlotTable{pow2,open-addressed,entryIndex+1}"
    "Entries{front:key32,points,heapOff;seg:key32,stages,heapOff}"
    "Heap{front:points*11;seg:stages*26+9}";

constexpr std::uint64_t kCacheFileMagic = 0x4c45474f44534543ull;
/** v6: two record kinds, frontier and segment, under a 12-word
 *  header. The per-mapping scalar kind with its region and header
 *  words, the reserved header words and the key-kind sentinels are
 *  gone (each kind has its own table, so keys need not be disjoint).
 *  v5: mmap-able snapshot — fixed 16-word header (generation stamp,
 *  header+body CRC32), per-kind open-addressed slot tables,
 *  fixed-stride entry arrays, variable-length heap. The same bytes
 *  back loadEx (merge) and the shared read-mostly tier (probe in
 *  place).
 *  v4: per-section CRC32 checksum word appended (crash-safe cache).
 *  v3: segment-entry section appended (inter-layer pipelining).
 *  v2: frontier-entry section appended (PR 4). Older files are
 *  rejected by the version check — deliberate cold start. */
constexpr std::uint64_t kCacheFileVersion = 6;

/**
 * CRC32 (IEEE 802.3, reflected 0xEDB88320) over a byte range — the
 * header/body checksums of the cache file. Table-driven; computed
 * identically at save and load so any flipped bit is caught even
 * when the size prechecks still pass.
 */
std::uint32_t
crc32Of(const char *data, std::size_t n)
{
    static const std::uint32_t *table = [] {
        static std::uint32_t t[256];
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ std::uint8_t(data[i])) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---- v6 layout constants (all sizes in 64-bit words) ----------------

/** Header word indices. Every header word except the trailing
 *  headerCrc itself is covered by headerCrc, so a flip anywhere in
 *  the 96-byte header is caught. */
enum : std::size_t
{
    kHdrMagic = 0,
    kHdrVersion = 1,
    kHdrSchema = 2,
    kHdrGeneration = 3,
    kHdrFrontSlots = 4,
    kHdrFrontCount = 5,
    kHdrSegSlots = 6,
    kHdrSegCount = 7,
    kHdrHeapWords = 8,
    kHdrTotalWords = 9,
    kHdrBodyCrc = 10,
    kHdrHeaderCrc = 11,
    kHeaderWords = 12,
};


constexpr std::uint64_t kResultWords = 6;
/** Derived from the key type so a grown CacheKey::words can never
 *  desync the load-time entry-size prechecks from save()'s layout. */
constexpr std::uint64_t kKeyWords =
    std::tuple_size<decltype(CacheKey::words)>::value;
/** One fixed-stride entry of either kind: the key, then the record's
 *  item count and heap offset. */
constexpr std::uint64_t kEntryWords = kKeyWords + 2;
constexpr std::uint64_t kMappingWords = 4;
/** dataflow, tm, tn, tk, LayerResult, seq. */
constexpr std::uint64_t kFrontierPointWords =
    kMappingWords + kResultWords + 1;
constexpr std::uint64_t kSegmentCostWords = 9;
/** sig15, cols, mapping4, LayerResult. */
constexpr std::uint64_t kSegmentStageWords =
    LayerSignature::kWords + 1 + kMappingWords + kResultWords;

/** Open-addressed table sizing: power of two, load factor <= 1/2
 *  (so probes terminate fast and the table can never fill). */
std::uint64_t
slotCountFor(std::uint64_t entries)
{
    if (entries == 0)
        return 0;
    std::uint64_t s = 2;
    while (s < 2 * entries)
        s <<= 1;
    return s;
}

/** A header read on its own (publish and refresh paths): right magic
 *  and version, and its CRC holds. */
bool
headerIntact(const std::uint64_t (&hdr)[kHeaderWords])
{
    return hdr[kHdrMagic] == kCacheFileMagic &&
           hdr[kHdrVersion] == kCacheFileVersion &&
           hdr[kHdrHeaderCrc] ==
               crc32Of(reinterpret_cast<const char *>(hdr),
                       (kHeaderWords - 1) * 8);
}

/** Check argument of the kinds whose key alone identifies a record. */
struct NoCheck
{
};

/** Heap words of a kind-K record holding `items` items. */
template <class K>
constexpr std::uint64_t
heapWordsOf(std::uint64_t items)
{
    return items * K::kItemWords + K::kTailWords;
}

/** Exact serialized footprint of one kind-K entry (byte accounting:
 *  what save() writes for it, key included). */
template <class K>
std::uint64_t
entryBytes(const typename K::Value &val)
{
    return (kEntryWords + heapWordsOf<K>(K::items(val))) * 8;
}

/** One kind's (key, value) pairs, as save() snapshots them. */
template <class K>
using Records = std::vector<std::pair<CacheKey, typename K::Value>>;

/** In-memory serialization buffer: save() builds the whole file
 *  image first so it can be checksummed and written (and fsynced)
 *  in one durable pass. */
struct Blob
{
    std::string bytes;

    void word(std::uint64_t w)
    {
        bytes.append(reinterpret_cast<const char *>(&w), sizeof(w));
    }

    /** Patch a previously appended word in place. */
    void patchWord(std::size_t wordIndex, std::uint64_t w)
    {
        std::memcpy(&bytes[wordIndex * 8], &w, sizeof(w));
    }
};

void
putResult(Blob &out, const LayerResult &r)
{
    out.word(std::uint64_t(r.cycles));
    out.word(doubleBits(r.utilization));
    out.word(std::uint64_t(r.dramBytes));
    out.word(doubleBits(r.energyPj));
    out.word(std::uint64_t(r.macs));
    out.word(std::uint64_t(r.memoryBound ? 1 : 0));
}

/** Decode one LayerResult from six words at `w`. */
LayerResult
readResult(const std::uint64_t *w)
{
    LayerResult r;
    r.cycles = Int(w[0]);
    r.utilization = bitsDouble(w[1]);
    r.dramBytes = Int(w[2]);
    r.energyPj = bitsDouble(w[3]);
    r.macs = Int(w[4]);
    r.memoryBound = w[5] != 0;
    return r;
}

void
putMapping(Blob &out, const Mapping &m)
{
    out.word(std::uint64_t(m.dataflow));
    out.word(std::uint64_t(m.tm));
    out.word(std::uint64_t(m.tn));
    out.word(std::uint64_t(m.tk));
}

/** Decode one Mapping from four words at `w`. */
Mapping
readMapping(const std::uint64_t *w)
{
    Mapping m;
    m.dataflow = DataflowTag(w[0]);
    m.tm = Int(w[1]);
    m.tn = Int(w[2]);
    m.tk = Int(w[3]);
    return m;
}

void
putSegmentCost(Blob &out, const SegmentCost &c)
{
    out.word(std::uint64_t(c.feasible ? 1 : 0));
    out.word(std::uint64_t(c.cycles));
    out.word(doubleBits(c.energyPj));
    out.word(std::uint64_t(c.dramBytes));
    out.word(std::uint64_t(c.bufferBytes));
    out.word(std::uint64_t(c.nocBytes));
    out.word(doubleBits(c.nocEnergyPj));
    out.word(doubleBits(c.sramEnergyPj));
    out.word(std::uint64_t(c.dramBytesSaved));
}

/** Decode one SegmentCost from nine words at `w`. */
SegmentCost
readSegmentCost(const std::uint64_t *w)
{
    SegmentCost c;
    c.feasible = w[0] != 0;
    c.cycles = Int(w[1]);
    c.energyPj = bitsDouble(w[2]);
    c.dramBytes = Int(w[3]);
    c.bufferBytes = Int(w[4]);
    c.nocBytes = Int(w[5]);
    c.nocEnergyPj = bitsDouble(w[6]);
    c.sramEnergyPj = bitsDouble(w[7]);
    c.dramBytesSaved = Int(w[8]);
    return c;
}

/** Fill the hardware section of a key (shared by both key kinds). */
std::size_t
hwPrefix(const HardwareConfig &hw, CacheKey *key)
{
    std::size_t i = 0;
    auto put = [&](std::uint64_t w) {
        if (i >= key->words.size())
            panic("cache key: key word capacity exceeded — grow "
                  "CacheKey::words for the newly keyed field");
        key->words[i++] = w;
    };

    // Hardware (everything but the cosmetic name).
    put(std::uint64_t(hw.rows));
    put(std::uint64_t(hw.cols));
    put(std::uint64_t(hw.l1Kb));
    put(doubleBits(hw.freqGhz));
    put(doubleBits(hw.dram.bandwidthGBs));
    put(doubleBits(hw.dram.energyPerBytePj));
    put(doubleBits(hw.dram.burstBytes));
    put(std::uint64_t(hw.numPpus));
    put(std::uint64_t(hw.dataBits));
    put(std::uint64_t(hw.l2X));
    put(std::uint64_t(hw.l2Y));
    put(std::uint64_t(hw.naiveFusion));
    // Ordered dataflow list, 4 bits per entry (tag + 1 so that an
    // empty slot differs from DataflowTag 0). The word holds at most
    // 16 tags; a longer list would shift earlier tags out and let two
    // distinct configs collide on one key, so it is a hard error.
    if (hw.dataflows.size() > 16)
        panic("cache key: more than 16 dataflow tags cannot be "
              "packed into one key word — spill to a second word "
              "before keying such configs");
    std::uint64_t dfs = 0;
    for (DataflowTag t : hw.dataflows)
        dfs = (dfs << 4) | (std::uint64_t(t) + 1);
    put(dfs);
    return i;
}

} // namespace

std::uint64_t
CacheKey::computeHash() const
{
    std::uint64_t h = kFnv1aOffset;
    for (std::uint64_t w : words)
        h = fnv1aWord(h, w);
    return h;
}

CacheKey
makeFrontierKey(const HardwareConfig &hw, const Layer &l,
                std::size_t k)
{
    CacheKey key;
    std::size_t i = hwPrefix(hw, &key);
    if (i + LayerSignature::kWords + 1 > key.words.size())
        panic("makeFrontierKey: key word capacity exceeded — grow "
              "CacheKey::words for the newly keyed field");
    // Layer shape (name and repeat excluded on purpose). Sourced
    // from the canonical LayerSignature serialization, so the
    // layer-class dedup and the cache key can never key on
    // different field sets.
    for (std::uint64_t w : layerSignature(l).words())
        key.words[i++] = w;
    key.words[i++] = std::uint64_t(k);
    key.hashValue = key.computeHash();
    return key;
}

SegmentKeyId
segmentKeyId(const Layer &l, int cols)
{
    SegmentKeyId id;
    id.sig = layerSignature(l).words();
    id.cols = std::uint64_t(cols);
    return id;
}

CacheKey
makeSegmentKey(const HardwareConfig &hw,
               const std::vector<SegmentKeyId> &stages)
{
    CacheKey key;
    std::size_t i = hwPrefix(hw, &key);
    if (i + 1 + stages.size() > key.words.size())
        panic("makeSegmentKey: segment of " +
              std::to_string(stages.size()) +
              " stages exceeds the key's tag-word capacity");
    key.words[i++] = std::uint64_t(stages.size());
    // One hashed tag word per stage. A tag collision is harmless:
    // the stored SegmentRecord carries the exact per-stage ids and
    // lookupSegment verifies them (mismatch = miss).
    for (const SegmentKeyId &s : stages) {
        std::uint64_t h = kFnv1aOffset;
        for (std::uint64_t w : s.sig)
            h = fnv1aWord(h, w);
        h = fnv1aWord(h, s.cols);
        key.words[i++] = h;
    }
    key.hashValue = key.computeHash();
    return key;
}

// ---- record kinds ----------------------------------------------------

/*
 * One traits struct per record kind. Each fixes:
 *  - Value, and Check: what a lookup must match beyond the key;
 *  - kRank: the kind's order in the file and its eviction rank
 *    (lower ranks are evicted first);
 *  - kHdrSlots/kHdrCount: its header slot-table size and entry-count
 *    words;
 *  - its v6 heap record: kItemWords per item plus kTailWords, with
 *    at least kMinItems items;
 *  - put/decode: the value's heap words;
 *  - kTable: its table in each Shard;
 *  - the counters (counters.hh rows) its L1 and shared-tier traffic
 *    bumps.
 */

struct CostCache::FrontierKind
{
    using Value = std::vector<FrontierPoint>;
    using Check = NoCheck;
    static constexpr std::uint8_t kRank = 0;
    static constexpr std::size_t kHdrSlots = kHdrFrontSlots;
    static constexpr std::size_t kHdrCount = kHdrFrontCount;
    static constexpr std::uint64_t kItemWords = kFrontierPointWords;
    static constexpr std::uint64_t kTailWords = 0;
    /** save() never writes an empty frontier; a file holding one is
     *  rejected at load instead of panicking mid-sweep later. */
    static constexpr std::uint64_t kMinItems = 1;
    static constexpr auto kTable = &Shard::fronts;
    static constexpr CounterId kHits = CounterId::hits;
    static constexpr CounterId kMisses = CounterId::misses;
    static constexpr CounterId kInserts = CounterId::frontInserts;
    static constexpr CounterId kSharedHits = CounterId::sharedFrontHits;

    static std::uint64_t items(const Value &v) { return v.size(); }
    static bool matches(const Value &, const Check &) { return true; }
    static void put(Blob &out, const Value &v)
    {
        for (const FrontierPoint &p : v) {
            putMapping(out, p.mapping);
            putResult(out, p.result);
            out.word(p.seq);
        }
    }
    static void decode(const std::uint64_t *w, std::uint64_t points,
                       Value *out)
    {
        out->clear();
        out->reserve(std::size_t(points));
        for (std::uint64_t p = 0; p < points; ++p, w += kItemWords) {
            FrontierPoint fp;
            fp.mapping = readMapping(w);
            fp.result = readResult(w + kMappingWords);
            fp.seq = w[kMappingWords + kResultWords];
            out->push_back(fp);
        }
    }
};

struct CostCache::SegmentKind
{
    using Value = SegmentRecord;
    /** The exact per-stage identity: a stored record whose id differs
     *  (hashed-tag collision) is a miss, preserving exactness. */
    using Check = std::vector<SegmentKeyId>;
    static constexpr std::uint8_t kRank = 1;
    static constexpr std::size_t kHdrSlots = kHdrSegSlots;
    static constexpr std::size_t kHdrCount = kHdrSegCount;
    static constexpr std::uint64_t kItemWords = kSegmentStageWords;
    static constexpr std::uint64_t kTailWords = kSegmentCostWords;
    /** A segment record always has >= 2 stages. */
    static constexpr std::uint64_t kMinItems = 2;
    static constexpr auto kTable = &Shard::segs;
    static constexpr CounterId kHits = CounterId::segHits;
    static constexpr CounterId kMisses = CounterId::segMisses;
    static constexpr CounterId kInserts = CounterId::segInserts;
    static constexpr CounterId kSharedHits = CounterId::sharedSegHits;

    static std::uint64_t items(const Value &v) { return v.id.size(); }
    static bool matches(const Value &v, const Check &stages)
    {
        return v.id == stages;
    }
    static void put(Blob &out, const Value &rec)
    {
        for (std::size_t st = 0; st < rec.id.size(); ++st) {
            for (std::uint64_t w : rec.id[st].sig)
                out.word(w);
            out.word(rec.id[st].cols);
            putMapping(out, rec.mappings[st]);
            putResult(out, rec.results[st]);
        }
        putSegmentCost(out, rec.cost);
    }
    static void decode(const std::uint64_t *w, std::uint64_t stages,
                       Value *out)
    {
        out->id.resize(std::size_t(stages));
        out->mappings.resize(std::size_t(stages));
        out->results.resize(std::size_t(stages));
        for (std::uint64_t st = 0; st < stages; ++st, w += kItemWords) {
            std::copy(w, w + LayerSignature::kWords,
                      out->id[st].sig.begin());
            out->id[st].cols = w[LayerSignature::kWords];
            out->mappings[st] = readMapping(w + LayerSignature::kWords + 1);
            out->results[st] = readResult(w + LayerSignature::kWords + 1 +
                                          kMappingWords);
        }
        out->cost = readSegmentCost(w);
    }
};

template <class F>
void
CostCache::forEachKind(F &&f)
{
    f(FrontierKind{});
    f(SegmentKind{});
}

// ---- the v6 image: one validator, one decoder ------------------------

/**
 * Read-only view of one v6 file image: the mmap'd shared tier, or the
 * buffer loadEx read. open() is the single validator (header, both
 * CRCs, region layout, every slot and heap reference), so the
 * accessors trust the image; probes still bound their walk so even a
 * logically inconsistent table terminates.
 */
class CacheImage
{
  public:
    /** Validate `bytes` bytes at `w`: Loaded, Stale (another version
     *  or schema) or Corrupt. The view is usable only after Loaded. */
    CacheLoadStatus open(const std::uint64_t *w, std::size_t bytes);

    std::uint64_t generation() const { return w_[kHdrGeneration]; }

    template <class K>
    std::uint64_t count() const
    {
        return w_[K::kHdrCount];
    }

    /** Key of kind-K entry `e`, hash filled. */
    template <class K>
    CacheKey key(std::uint64_t e) const
    {
        const std::uint64_t *ew = entry<K>(e);
        CacheKey k;
        std::copy(ew, ew + kKeyWords, k.words.begin());
        k.hashValue = k.computeHash();
        return k;
    }

    /** Decode the value of kind-K entry `e`. */
    template <class K>
    void decode(std::uint64_t e, typename K::Value *out) const
    {
        const std::uint64_t *ew = entry<K>(e) + kKeyWords;
        K::decode(w_ + heapAt_ + ew[1], ew[0], out);
    }

    /** Probe kind K's open-addressed table; decode on a match. */
    template <class K>
    bool lookup(const CacheKey &key, const typename K::Check &check,
                typename K::Value *out) const
    {
        const std::uint64_t e = find<K>(key);
        if (e == kNone)
            return false;
        decode<K>(e, out);
        return K::matches(*out, check);
    }

  private:
    static constexpr std::uint64_t kNone = ~0ull;

    template <class K>
    const std::uint64_t *entry(std::uint64_t e) const
    {
        return w_ + entriesAt_[K::kRank] + e * kEntryWords;
    }

    /**
     * Linear probing over the power-of-two slot table: the index of
     * the entry whose key matches, or kNone. A zero slot ends the
     * chain (load factor <= 1/2 guarantees empties exist).
     */
    template <class K>
    std::uint64_t find(const CacheKey &key) const
    {
        const std::uint64_t slots = w_[K::kHdrSlots];
        if (slots == 0)
            return kNone;
        const std::uint64_t mask = slots - 1;
        std::uint64_t idx = key.hashValue & mask;
        for (std::uint64_t walked = 0; walked <= mask; ++walked) {
            const std::uint64_t slot = w_[slotsAt_[K::kRank] + idx];
            if (slot == 0)
                return kNone;
            if (std::equal(key.words.begin(), key.words.end(),
                           entry<K>(slot - 1)))
                return slot - 1;
            idx = (idx + 1) & mask;
        }
        return kNone;
    }

    const std::uint64_t *w_ = nullptr;
    std::array<std::uint64_t, 2> slotsAt_{};
    std::array<std::uint64_t, 2> entriesAt_{};
    std::uint64_t heapAt_ = 0;
};

CacheLoadStatus
CacheImage::open(const std::uint64_t *w, std::size_t bytes)
{
    if (bytes < kHeaderWords * 8 || bytes % 8 != 0 ||
        w[kHdrMagic] != kCacheFileMagic)
        return CacheLoadStatus::Corrupt;
    // A wrong version or schema on an intact magic is a file from
    // another build — a DELIBERATE cold start, not corruption (so
    // loadOrQuarantine won't destroy a downgrade's still-good file).
    // v5-and-earlier files land here: their word 1 is the old
    // version stamp.
    if (w[kHdrVersion] != kCacheFileVersion ||
        w[kHdrSchema] != CostCache::schemaHash())
        return CacheLoadStatus::Stale;
    const char *b = reinterpret_cast<const char *>(w);
    const std::uint64_t maxWords = bytes / 8;
    const std::uint64_t heapWords = w[kHdrHeapWords];
    if (w[kHdrHeaderCrc] != crc32Of(b, (kHeaderWords - 1) * 8) ||
        w[kHdrTotalWords] != maxWords || heapWords > maxWords)
        return CacheLoadStatus::Corrupt;

    // Region layout. Counts are cross-checked against the file length
    // before any use (divide, never multiply, so a hostile count
    // cannot overflow the check), and the regions must consume the
    // file exactly.
    bool ok = true;
    std::uint64_t at = kHeaderWords;
    CostCache::forEachKind([&](auto kind) {
        using K = decltype(kind);
        const std::uint64_t slots = w[K::kHdrSlots];
        const std::uint64_t n = w[K::kHdrCount];
        ok = ok && n <= maxWords / kEntryWords &&
             slots == slotCountFor(n);
        if (!ok)
            return;
        slotsAt_[K::kRank] = at;
        entriesAt_[K::kRank] = at + slots;
        at += slots + n * kEntryWords;
    });
    if (!ok || at + heapWords != maxWords ||
        w[kHdrBodyCrc] != crc32Of(b + kHeaderWords * 8,
                                  bytes - kHeaderWords * 8))
        return CacheLoadStatus::Corrupt;
    w_ = w;
    heapAt_ = at;

    // Slot values index entries; heap references stay in the heap.
    CostCache::forEachKind([&](auto kind) {
        using K = decltype(kind);
        const std::uint64_t n = count<K>();
        for (std::uint64_t i = 0; i < w[K::kHdrSlots]; ++i)
            ok = ok && w[slotsAt_[K::kRank] + i] <= n;
        for (std::uint64_t e = 0; e < n && ok; ++e) {
            const std::uint64_t items = entry<K>(e)[kKeyWords];
            const std::uint64_t off = entry<K>(e)[kKeyWords + 1];
            ok = items >= K::kMinItems &&
                 items <= heapWords / K::kItemWords &&
                 heapWordsOf<K>(items) <= heapWords &&
                 off <= heapWords - heapWordsOf<K>(items);
        }
    });
    return ok ? CacheLoadStatus::Loaded : CacheLoadStatus::Corrupt;
}

/**
 * One immutable mapping of a published v6 snapshot, validated at
 * map() time. Instances are shared_ptr-held: a remap publishes a new
 * instance while in-flight probes finish on the old one, which
 * unmaps when its last reference drops.
 */
class SharedSnapshot
{
  public:
    ~SharedSnapshot()
    {
        if (base_ != nullptr)
            ::munmap(base_, bytes_);
    }

    SharedSnapshot(const SharedSnapshot &) = delete;
    SharedSnapshot &operator=(const SharedSnapshot &) = delete;

    /**
     * mmap `path` read-only and validate it as a v6 snapshot.
     * Returns null unless the file exists and CacheImage::open
     * accepts it — an unpublished, stale, or damaged file is simply
     * "no shared tier yet".
     */
    static std::shared_ptr<const SharedSnapshot>
    map(const std::string &path)
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return nullptr;
        struct stat st = {};
        if (::fstat(fd, &st) != 0 ||
            st.st_size < off_t(kHeaderWords * 8)) {
            ::close(fd);
            return nullptr;
        }
        void *base = ::mmap(nullptr, std::size_t(st.st_size),
                            PROT_READ, MAP_SHARED, fd, 0);
        ::close(fd); // The mapping holds its own reference.
        if (base == MAP_FAILED)
            return nullptr;
        std::shared_ptr<SharedSnapshot> snap(new SharedSnapshot);
        snap->base_ = base;
        snap->bytes_ = std::size_t(st.st_size);
        if (snap->image_.open(static_cast<const std::uint64_t *>(base),
                              snap->bytes_) != CacheLoadStatus::Loaded)
            return nullptr; // Destructor unmaps.
        return snap;
    }

    const CacheImage &image() const { return image_; }
    std::uint64_t generation() const { return image_.generation(); }

  private:
    SharedSnapshot() = default;

    void *base_ = nullptr;
    std::size_t bytes_ = 0;
    CacheImage image_;
};

CostCache::Shard &
CostCache::shardFor(const CacheKey &key)
{
    return shards_[std::size_t(key.hashValue) % kShards];
}

// ---- bounded L1: capacity + snapshot-batched cost-aware LRU ---------

void
CostCache::setCapacity(std::uint64_t maxBytes)
{
    maxBytes_.store(maxBytes, std::memory_order_relaxed);
    if (overCapacity())
        enforceCapacity();
}

bool
CostCache::overCapacity() const
{
    const std::uint64_t mb = maxBytes_.load(std::memory_order_relaxed);
    return mb != 0 && residentBytes() > mb;
}

void
CostCache::enforceCapacity()
{
    // One batch at a time. An insert that lands while a batch runs
    // waits here and re-checks afterwards: the running batch only
    // frees what its own snapshot is over the target, so the racer's
    // bytes are the racer's to evict.
    std::lock_guard<std::mutex> evictLk(evictMu_);
    if (!overCapacity())
        return;
    LEGO_TRACE_SPAN_ARG("cache.evict", "cache", "resident_bytes",
                        residentBytes());

    // Rank every resident entry by (kind rank, last use): frontiers
    // first (each one reconstructs from one per-layer sweep), then
    // segment records (whole per-stage searches). LRU within each
    // kind. `evict` erases the entry from its kind's table unless it
    // was touched since this snapshot (a re-used entry is hot again —
    // skip it this batch) and returns the bytes freed.
    using Evict = std::uint64_t (*)(Shard &, const CacheKey &,
                                    std::uint64_t lastUse);
    struct Cand
    {
        std::uint8_t rank;
        std::uint64_t lastUse;
        std::uint32_t shard;
        Evict evict;
        CacheKey key;
    };
    std::vector<Cand> cands;
    std::uint64_t snapshotBytes = 0;
    for (std::uint32_t si = 0; si < kShards; ++si) {
        Shard &s = shards_[si];
        std::lock_guard<std::mutex> lk(s.mu);
        forEachKind([&](auto kind) {
            using K = decltype(kind);
            const Evict evict = [](Shard &sh, const CacheKey &key,
                                   std::uint64_t lastUse) {
                auto &table = sh.*K::kTable;
                auto it = table.find(key);
                if (it == table.end() || it->second.lastUse != lastUse)
                    return std::uint64_t(0);
                const std::uint64_t freed = it->second.bytes;
                table.erase(it);
                return freed;
            };
            for (const auto &kv : s.*K::kTable) {
                cands.push_back(
                    {K::kRank, kv.second.lastUse, si, evict, kv.first});
                snapshotBytes += kv.second.bytes;
            }
        });
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand &a, const Cand &b) {
                  return a.rank != b.rank ? a.rank < b.rank
                                          : a.lastUse < b.lastUse;
              });

    // Batch target: 7/8 of the bound, so inserts between batches
    // amortize the O(entries) candidate scan above.
    const std::uint64_t mb = maxBytes_.load(std::memory_order_relaxed);
    const std::uint64_t target = mb - mb / 8;
    for (const Cand &c : cands) {
        if (snapshotBytes <= target)
            break;
        Shard &s = shards_[c.shard];
        std::uint64_t freed = 0;
        {
            std::lock_guard<std::mutex> lk(s.mu);
            freed = c.evict(s, c.key, c.lastUse);
        }
        if (freed != 0) {
            snapshotBytes -= freed;
            stats_[CounterId::residentBytes].fetch_sub(
                freed, std::memory_order_relaxed);
            bumpStat(stats_, CounterId::evictions);
        }
    }
}

// ---- shared-tier plumbing -------------------------------------------

std::shared_ptr<const SharedSnapshot>
CostCache::sharedSnapshot() const
{
    if (!sharedAttached_.load(std::memory_order_acquire))
        return nullptr;
    std::lock_guard<std::mutex> lk(sharedMu_);
    return shared_;
}

bool
CostCache::mapShared(bool countRemap)
{
    std::string path;
    {
        std::lock_guard<std::mutex> lk(sharedMu_);
        path = sharedPath_;
    }
    std::shared_ptr<const SharedSnapshot> snap =
        SharedSnapshot::map(path);
    if (!snap)
        return false;
    std::lock_guard<std::mutex> lk(sharedMu_);
    if (shared_ && shared_->generation() == snap->generation())
        return false; // Raced with another refresher; keep theirs.
    const bool hadPrevious = shared_ != nullptr;
    shared_ = std::move(snap);
    stats_[CounterId::generation].store(shared_->generation(),
                                        std::memory_order_relaxed);
    if (countRemap && hadPrevious)
        bumpStat(stats_, CounterId::remaps);
    return true;
}

bool
CostCache::attachShared(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lk(sharedMu_);
        sharedPath_ = path;
        shared_.reset();
        stats_[CounterId::generation].store(0,
                                            std::memory_order_relaxed);
    }
    sharedAttached_.store(true, std::memory_order_release);
    mapShared(/*countRemap=*/false);
    return sharedGeneration() != 0;
}

bool
CostCache::refreshShared()
{
    if (!sharedAttached_.load(std::memory_order_acquire))
        return false;
    // Cheap no-change path: read just the 96-byte header and
    // compare generations before paying for a full map+validate.
    std::string path;
    std::uint64_t current;
    {
        std::lock_guard<std::mutex> lk(sharedMu_);
        path = sharedPath_;
        current = sharedGeneration();
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    std::uint64_t hdr[kHeaderWords] = {};
    const ssize_t n = ::pread(fd, hdr, sizeof(hdr), 0);
    ::close(fd);
    if (n != ssize_t(sizeof(hdr)) || !headerIntact(hdr) ||
        hdr[kHdrSchema] != schemaHash())
        return false;
    if (hdr[kHdrGeneration] == current)
        return false;
    return mapShared(/*countRemap=*/true);
}

std::uint64_t
CostCache::sharedGeneration() const
{
    return stats_.load(CounterId::generation);
}

// ---- lookups / inserts ----------------------------------------------

template <class K>
bool
CostCache::lookupIn(const CacheKey &key, const typename K::Check &check,
                    typename K::Value *out)
{
    Shard &s = shardFor(key);
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto &table = s.*K::kTable;
        auto it = table.find(key);
        if (it != table.end() && K::matches(it->second.val, check)) {
            it->second.lastUse = tick();
            bumpStat(stats_, K::kHits);
            *out = it->second.val;
            return true;
        }
    }
    // L1 miss: probe the mapped snapshot (no locks held — the
    // shared_ptr keeps the image alive). A shared hit counts as a
    // hit AND a shared hit; it is NOT copied into L1, so the
    // snapshot's pages stay shared across processes.
    if (std::shared_ptr<const SharedSnapshot> snap =
            sharedSnapshot()) {
        if (snap->image().lookup<K>(key, check, out)) {
            bumpStat(stats_, K::kHits);
            bumpStat(stats_, K::kSharedHits);
            return true;
        }
    }
    bumpStat(stats_, K::kMisses);
    return false;
}

template <class K>
void
CostCache::insertIn(const CacheKey &key, const typename K::Value &val)
{
    Shard &s = shardFor(key);
    bool created;
    const std::uint64_t bytes = entryBytes<K>(val);
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto r = (s.*K::kTable)
                     .emplace(key, Entry<typename K::Value>{});
        created = r.second;
        if (created) {
            r.first->second.val = val;
            r.first->second.bytes = bytes;
            r.first->second.lastUse = tick();
        }
    }
    if (created) {
        bumpStat(stats_, K::kInserts);
        stats_.add(CounterId::residentBytes, bytes);
        if (overCapacity())
            enforceCapacity();
    }
}

template <class K>
std::size_t
CostCache::countIn() const
{
    std::size_t n = 0;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lk(s.mu);
        n += (s.*K::kTable).size();
    }
    return n;
}

bool
CostCache::lookupFrontier(const CacheKey &key,
                          std::vector<FrontierPoint> *out)
{
    const bool hit = lookupIn<FrontierKind>(key, NoCheck{}, out);
    bumpStat(stats_, hit ? CounterId::frontHits : CounterId::frontMisses);
    return hit;
}

void
CostCache::insertFrontier(const CacheKey &key,
                          const std::vector<FrontierPoint> &points)
{
    insertIn<FrontierKind>(key, points);
}

bool
CostCache::lookupSegment(const CacheKey &key,
                         const std::vector<SegmentKeyId> &stages,
                         SegmentRecord *out)
{
    return lookupIn<SegmentKind>(key, stages, out);
}

void
CostCache::insertSegment(const CacheKey &key, const SegmentRecord &rec)
{
    if (rec.id.size() != rec.mappings.size() ||
        rec.id.size() != rec.results.size())
        panic("insertSegment: ragged segment record");
    insertIn<SegmentKind>(key, rec);
}

std::size_t
CostCache::size() const
{
    return frontierCount() + segmentCount();
}

std::size_t
CostCache::frontierCount() const
{
    return countIn<FrontierKind>();
}

std::size_t
CostCache::segmentCount() const
{
    return countIn<SegmentKind>();
}

std::uint64_t
CostCache::schemaHash()
{
    std::uint64_t h = kFnv1aOffset;
    for (const char *p = kCacheFileSchema; *p; ++p)
        h = fnv1aByte(h, std::uint8_t(*p));
    return h;
}

std::uint64_t
CostCache::fileFormatVersion()
{
    return kCacheFileVersion;
}

namespace
{

/** write(2) the whole buffer, retrying short writes and EINTR. */
bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t at = 0;
    while (at < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + at, bytes.size() - at);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        at += std::size_t(n);
    }
    return true;
}

/** fsync the directory holding `path`, persisting a rename within
 *  it. Best-effort: the renamed file itself is already valid, a
 *  failure here only re-opens the (pre-existing) window in which a
 *  power cut may resurface the old file. */
void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos
            ? "."
            : (slash == 0 ? "/" : path.substr(0, slash));
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/**
 * Generation the publish of `body` (the new image past the header)
 * to `path` should stamp: the current valid v6 generation + 1, or 1
 * on a fresh/invalid path. A byte-identical body REUSES the current
 * generation — the whole file then comes out bit-identical, so an
 * idempotent republish neither perturbs the artifact nor makes
 * attached readers remap for content they already have.
 * Single-writer protocol — concurrent writers could mint the same
 * generation (last rename wins; see serve/README.md).
 */
std::uint64_t
generationFor(const std::string &path, const char *body,
              std::size_t bodyBytes)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return 1;
    std::uint64_t hdr[kHeaderWords] = {};
    bool same = false;
    std::uint64_t gen = 0;
    const ssize_t n = ::pread(fd, hdr, sizeof(hdr), 0);
    if (n == ssize_t(sizeof(hdr)) && headerIntact(hdr)) {
        gen = hdr[kHdrGeneration];
        if (hdr[kHdrTotalWords] * 8 ==
            kHeaderWords * 8 + bodyBytes) {
            std::string old(bodyBytes, '\0');
            same = ::pread(fd, &old[0], bodyBytes,
                           off_t(kHeaderWords * 8)) ==
                       ssize_t(bodyBytes) &&
                   std::memcmp(old.data(), body, bodyBytes) == 0;
        }
    }
    ::close(fd);
    if (gen == 0)
        return 1;
    return same ? gen : gen + 1;
}

/** Build a v6 open-addressed slot table over per-entry key hashes. */
std::vector<std::uint64_t>
buildSlotTable(const std::vector<std::uint64_t> &hashes)
{
    const std::uint64_t slots = slotCountFor(hashes.size());
    std::vector<std::uint64_t> table(std::size_t(slots), 0);
    if (slots == 0)
        return table;
    const std::uint64_t mask = slots - 1;
    for (std::size_t e = 0; e < hashes.size(); ++e) {
        std::uint64_t idx = hashes[e] & mask;
        while (table[std::size_t(idx)] != 0)
            idx = (idx + 1) & mask;
        table[std::size_t(idx)] = std::uint64_t(e) + 1;
    }
    return table;
}

} // namespace


bool
CostCache::save(const std::string &path) const
{
    LEGO_TRACE_SPAN_ARG("cache.save", "cache", "entries", size());
    // Snapshot under the shard locks first so the header counts are
    // exact even if writers race the save.
    std::tuple<Records<FrontierKind>, Records<SegmentKind>> recs;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lk(s.mu);
        forEachKind([&](auto kind) {
            using K = decltype(kind);
            for (const auto &kv : s.*K::kTable)
                std::get<K::kRank>(recs).emplace_back(kv.first,
                                                      kv.second.val);
        });
    }
    // Sort each kind by key words: the bytes then depend only on the
    // entry set, not on the insert order hash-table iteration shows,
    // so an unchanged set republishes under the same generation.
    forEachKind([&](auto kind) {
        using K = decltype(kind);
        Records<K> &r = std::get<K::kRank>(recs);
        std::sort(r.begin(), r.end(),
                  [](const auto &a, const auto &b) {
                      return a.first.words < b.first.words;
                  });
    });

    // Serialize the whole mmap-able image in memory: header, one
    // (slot table, fixed-stride entry array) pair per kind, then the
    // heap holding the payloads in kind order. The generation and
    // CRCs are patched into the header last.
    std::array<std::vector<std::uint64_t>, 2> slots;
    std::uint64_t heapWords = 0;
    std::uint64_t totalWords = kHeaderWords;
    forEachKind([&](auto kind) {
        using K = decltype(kind);
        const Records<K> &r = std::get<K::kRank>(recs);
        std::vector<std::uint64_t> hashes;
        hashes.reserve(r.size());
        for (const auto &kv : r) {
            hashes.push_back(kv.first.hashValue);
            heapWords += heapWordsOf<K>(K::items(kv.second));
        }
        slots[K::kRank] = buildSlotTable(hashes);
        totalWords += slots[K::kRank].size() + r.size() * kEntryWords;
    });
    totalWords += heapWords;

    Blob out;
    out.bytes.reserve(std::size_t(totalWords) * 8);
    for (std::size_t i = 0; i < kHeaderWords; ++i)
        out.word(0);
    out.patchWord(kHdrMagic, kCacheFileMagic);
    out.patchWord(kHdrVersion, kCacheFileVersion);
    out.patchWord(kHdrSchema, schemaHash());
    out.patchWord(kHdrHeapWords, heapWords);
    out.patchWord(kHdrTotalWords, totalWords);
    // Heap offsets are assigned in entry order, kind by kind.
    std::uint64_t heapAt = 0;
    forEachKind([&](auto kind) {
        using K = decltype(kind);
        const Records<K> &r = std::get<K::kRank>(recs);
        out.patchWord(K::kHdrSlots, slots[K::kRank].size());
        out.patchWord(K::kHdrCount, r.size());
        for (std::uint64_t w : slots[K::kRank])
            out.word(w);
        for (const auto &kv : r) {
            for (std::uint64_t w : kv.first.words)
                out.word(w);
            const std::uint64_t items = K::items(kv.second);
            out.word(items);
            out.word(heapAt);
            heapAt += heapWordsOf<K>(items);
        }
    });
    forEachKind([&](auto kind) {
        using K = decltype(kind);
        for (const auto &kv : std::get<K::kRank>(recs))
            K::put(out, kv.second);
    });
    if (out.bytes.size() != std::size_t(totalWords) * 8)
        panic("cache save: serialized image size diverged from the "
              "header layout");
    out.patchWord(kHdrGeneration,
                  generationFor(path,
                                out.bytes.data() + kHeaderWords * 8,
                                out.bytes.size() -
                                    kHeaderWords * 8));
    // Body CRC over everything after the header; header CRC over
    // every header word but itself, so any header flip is caught.
    out.patchWord(kHdrBodyCrc,
                  crc32Of(out.bytes.data() + kHeaderWords * 8,
                          out.bytes.size() - kHeaderWords * 8));
    out.patchWord(kHdrHeaderCrc,
                  crc32Of(out.bytes.data(), (kHeaderWords - 1) * 8));

    // Durable write: temp file, write, fsync, rename, fsync the
    // directory. A crash (or injected fault) at ANY point leaves
    // either the previous valid file or the new valid file at
    // `path` — never a torn one. Each step has a failpoint so
    // chaos runs can prove that property.
    obs::Failpoints &fp = obs::Failpoints::instance();
    const std::string tmp = path + ".tmp";
    if (fp.fire("cache.save.open"))
        return false;
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        return false;
    if (fp.fire("cache.save.crash")) {
        // Simulated mid-write crash: half the image reaches the temp
        // file, which is left behind un-renamed — exactly the debris
        // a real crash leaves. The target file stays untouched.
        (void)::write(fd, out.bytes.data(), out.bytes.size() / 2);
        ::close(fd);
        return false;
    }
    bool ok = writeAll(fd, out.bytes) && !fp.fire("cache.save.write");
    // fsync BEFORE rename: once the new name is visible it must
    // point at durable bytes, else a crash after the rename can
    // surface a stale-or-empty file (the pre-v4 durability bug).
    if (ok && (fp.fire("cache.save.fsync") || ::fsync(fd) != 0))
        ok = false;
    ::close(fd);
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (fp.fire("cache.save.rename") ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    fsyncParentDir(path);
    return true;
}


CacheLoadStatus
CostCache::loadEx(const std::string &path)
{
    LEGO_TRACE_SPAN("cache.load", "cache");
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return CacheLoadStatus::Missing;
    const std::streamoff fileBytes = in.tellg();
    in.seekg(0);
    std::vector<std::uint64_t> words((std::size_t(fileBytes) + 7) / 8);
    if (fileBytes > 0 &&
        !in.read(reinterpret_cast<char *>(words.data()), fileBytes))
        return CacheLoadStatus::Corrupt;
    if (obs::Failpoints::instance().fire("cache.load.corrupt"))
        return CacheLoadStatus::Corrupt;

    // The same validator as the shared tier: the whole image is
    // checked before any entry is merged, so a corrupt file never
    // leaves a half-merged state behind.
    CacheImage image;
    const CacheLoadStatus st =
        image.open(words.data(), std::size_t(fileBytes));
    if (st != CacheLoadStatus::Loaded)
        return st;
    forEachKind([&](auto kind) {
        using K = decltype(kind);
        typename K::Value val;
        for (std::uint64_t e = 0; e < image.count<K>(); ++e) {
            image.decode<K>(e, &val);
            insertIn<K>(image.key<K>(e), val);
        }
    });
    return CacheLoadStatus::Loaded;
}

bool
CostCache::load(const std::string &path)
{
    return loadEx(path) == CacheLoadStatus::Loaded;
}

CacheLoadStatus
CostCache::loadOrQuarantine(const std::string &path)
{
    const CacheLoadStatus st = loadEx(path);
    if (st != CacheLoadStatus::Corrupt)
        return st;
    // Set the evidence aside (replacing any older quarantine) so the
    // next save() starts clean and the bad file stays inspectable.
    const std::string aside = path + ".corrupt";
    std::remove(aside.c_str());
    if (std::rename(path.c_str(), aside.c_str()) == 0)
        std::fprintf(stderr,
                     "lego: cache file %s failed validation; "
                     "quarantined to %s (cold start)\n",
                     path.c_str(), aside.c_str());
    bumpStat(stats_, CounterId::quarantined);
    return st;
}

void
CostCache::clear()
{
    for (Shard &s : shards_) {
        std::lock_guard<std::mutex> lk(s.mu);
        forEachKind([&](auto kind) {
            using K = decltype(kind);
            (s.*K::kTable).clear();
        });
    }
    // Zero every counter and the resident footprint. The shared
    // snapshot (if attached) stays mapped — it is read-only state
    // owned by the publisher, not by this process — and its
    // generation survives with it.
    CacheCounters::visit([&](CounterId c) {
        if (c != CounterId::generation)
            stats_[c].store(0);
    });
}

} // namespace dse
} // namespace lego
