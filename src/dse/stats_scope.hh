/**
 * @file
 * Per-window stats attribution for concurrent callers of the DSE
 * engine. Deltas of the engine's GLOBAL monotonic counters are exact
 * only while windows never overlap; once the serve loop overlaps
 * requests, two windows see each other's work.
 *
 * A StatsContext is the overlap-safe alternative: a per-window
 * counter block installed into thread-local storage with an RAII
 * Scope. Every counter bump site (Evaluator work counters, CostCache
 * tier counters) credits BOTH the global atomic and the current
 * thread's context, and the evaluator and DseEngine::explore()
 * re-install the submitting thread's context inside each WorkerPool
 * item they fan out, so work executed by shared pool workers is
 * attributed to the window (a serve request, an explore() call) that
 * asked for it — exactly, even with any number of windows open.
 * DseEngine::statsFrom() turns a context into DseStats.
 *
 * Null context (the default on every thread) costs one thread-local
 * load per bump; paths that never install a scope are unchanged.
 */

#ifndef LEGO_DSE_STATS_SCOPE_HH
#define LEGO_DSE_STATS_SCOPE_HH

#include <atomic>
#include <cstdint>

namespace lego
{
namespace dse
{

/**
 * One request's work/caching counters, bumped from any thread whose
 * current scope points here. Field names mirror DseStats; atomics
 * because several pool workers serve one request concurrently.
 */
class StatsContext
{
  public:
    std::atomic<std::uint64_t> cacheHits{0};   //!< Sharded L1 hits.
    std::atomic<std::uint64_t> cacheMisses{0};
    std::atomic<std::uint64_t> l0Hits{0};      //!< Thread-local L0.
    std::atomic<std::uint64_t> l0Misses{0};
    std::atomic<std::uint64_t> frontHits{0};   //!< Frontier memo.
    std::atomic<std::uint64_t> frontMisses{0};
    std::atomic<std::uint64_t> segHits{0};     //!< Segment memo.
    std::atomic<std::uint64_t> segMisses{0};
    std::atomic<std::uint64_t> evictions{0};   //!< L1 LRU evictions.
    /** Shared mmap-tier attribution (each also counts in the
     *  matching cacheHits/frontHits/segHits slot). */
    std::atomic<std::uint64_t> sharedHits{0};
    std::atomic<std::uint64_t> sharedFrontHits{0};
    std::atomic<std::uint64_t> sharedSegHits{0};
    std::atomic<std::uint64_t> modelEvals{0};
    std::atomic<std::uint64_t> mappingsPruned{0};
    std::atomic<std::uint64_t> dataflowsPruned{0};
    std::atomic<std::uint64_t> layersDeduped{0};
    std::atomic<std::uint64_t> crossModelDeduped{0};

    /** The context installed on THIS thread (null = none). */
    static StatsContext *current() { return tls(); }

    /**
     * RAII installation. Nestable: the previous context is restored
     * on destruction. Installing null is valid (and is how a worker
     * serving uncontexted work keeps it unattributed).
     */
    class Scope
    {
      public:
        explicit Scope(StatsContext *ctx) : prev_(tls())
        {
            tls() = ctx;
        }
        ~Scope() { tls() = prev_; }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        StatsContext *prev_;
    };

  private:
    static StatsContext *&tls()
    {
        thread_local StatsContext *ctx = nullptr;
        return ctx;
    }
};

/**
 * Bump a global monotonic counter AND the current thread's context
 * slot (when one is installed). THE idiom for every counter the
 * serving loop reports per request; sites that use it stay exact
 * under overlapped requests for free.
 */
inline void
bumpStat(std::atomic<std::uint64_t> &global,
         std::atomic<std::uint64_t> StatsContext::*slot,
         std::uint64_t n = 1)
{
    global.fetch_add(n, std::memory_order_relaxed);
    if (StatsContext *ctx = StatsContext::current())
        (ctx->*slot).fetch_add(n, std::memory_order_relaxed);
}

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_STATS_SCOPE_HH
