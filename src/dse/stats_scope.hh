/**
 * @file
 * Per-window stats attribution for concurrent callers of the DSE
 * engine. Deltas of the engine's GLOBAL monotonic counters are exact
 * only while windows never overlap; once the serve loop overlaps
 * requests, two windows see each other's work.
 *
 * A StatsContext is the overlap-safe alternative: a per-window
 * counter block installed into thread-local storage with an RAII
 * Scope. Every bump of a Window counter (counters.hh) credits BOTH
 * its owner's global block and the current thread's context, and
 * the evaluator and DseEngine::explore() re-install the submitting
 * thread's context inside each WorkerPool item they fan out, so work
 * executed by shared pool workers is attributed to the window (a
 * serve request, an explore() call) that asked for it — exactly,
 * even with any number of windows open. DseEngine::statsFrom() turns
 * a context into DseStats.
 *
 * Null context (the default on every thread) costs one thread-local
 * load per bump; paths that never install a scope are unchanged.
 */

#ifndef LEGO_DSE_STATS_SCOPE_HH
#define LEGO_DSE_STATS_SCOPE_HH

#include "dse/counters.hh"

namespace lego
{
namespace dse
{

/**
 * One window's Window counters, bumped from any thread whose current
 * scope points here; atomics because several pool workers serve one
 * request concurrently.
 */
class StatsContext : public CounterBlock
{
  public:
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
 * Bump counter `c` in its owner's global block and, for a Window
 * counter, in the current thread's context too (when one is
 * installed). THE idiom for every counter bump; sites that use it
 * stay exact under overlapped requests for free.
 */
inline void
bumpStat(CounterBlock &global, CounterId c, std::uint64_t n = 1)
{
    global.add(c, n);
    if (counterRow(c).kind == CounterKind::Window)
        if (StatsContext *ctx = StatsContext::current())
            ctx->add(c, n);
}

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_STATS_SCOPE_HH
