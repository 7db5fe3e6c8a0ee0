/**
 * @file
 * Cooperative cancellation for DSE sweeps: a CancelToken carries an
 * explicit cancel flag and/or an absolute deadline, and long-running
 * loops (mapping-frontier sweeps, explore batches, segment-group
 * costings) poll shouldStop() at chunk boundaries.
 *
 * The contract is BEST-SO-FAR, never nothing: a tripped token makes
 * a sweep stop refining and return what it already has (every layer
 * still gets at least its fallback mapping point, every model still
 * composes), with noteDegraded() recording that the result may be
 * worse than the exhaustive answer. Callers surface that bit — the
 * serving loop flags the response `degraded: true`.
 *
 * Truncated results must never poison the shared memo: frontier and
 * segment-record cache inserts are skipped while a token is tripped
 * (see Evaluator::searchMappingFrontier / segment_search.cc), so a
 * deadline can only cost THIS request quality, never a later one
 * correctness. shouldStop() is monotonic — once true it stays true
 * (deadlines only expire, cancel() is one-way) — which is what makes
 * the skip-insert guard sound.
 *
 * A null `const CancelToken *` everywhere means "no deadline", and
 * every check compiles to nothing on that path, keeping deadline-free
 * requests bit-identical to a build without this header.
 */

#ifndef LEGO_DSE_CANCEL_HH
#define LEGO_DSE_CANCEL_HH

#include <atomic>
#include <chrono>
#include <cstdint>

namespace lego
{
namespace dse
{

class CancelToken
{
  public:
    CancelToken() = default;
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** One-way explicit cancel (e.g. shutdown). */
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    /** Arm a deadline `ms` milliseconds from now (steady clock).
     *  ms <= 0 trips the token immediately. */
    void setDeadlineIn(double ms)
    {
        const std::int64_t now = nowNs();
        const double delta = ms * 1e6;
        // Parse caps deadline_ms at 1e12 ms (~31 years), so the sum
        // cannot overflow int64 nanoseconds.
        const std::int64_t at =
            delta > 0 ? now + std::int64_t(delta) : now;
        deadlineNs_.store(at, std::memory_order_relaxed);
    }

    /** True once cancelled or past the deadline; monotonic. */
    bool shouldStop() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return true;
        const std::int64_t at =
            deadlineNs_.load(std::memory_order_relaxed);
        return at != 0 && nowNs() >= at;
    }

    /** A sweep truncated itself: the result is best-so-far, not
     *  exhaustive. Safe from any worker thread; const because sweeps
     *  hold the token through a `const CancelToken *` — degradation
     *  is an observation about the result, not a token state change
     *  the holder controls. */
    void noteDegraded() const
    {
        degraded_.store(true, std::memory_order_relaxed);
    }
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

  private:
    static std::int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch())
            .count();
    }

    std::atomic<bool> cancelled_{false};
    mutable std::atomic<bool> degraded_{false};
    std::atomic<std::int64_t> deadlineNs_{0}; //!< 0 = no deadline.
};

} // namespace dse
} // namespace lego

#endif // LEGO_DSE_CANCEL_HH
