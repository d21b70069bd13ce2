/**
 * @file
 * Bounded LRU memoization of served CheckResults.
 *
 * Soundness: the engine guarantees that verdicts and counts of
 * *uncapped* runs are thread-count-deterministic, and
 * renderJson(deterministic) zeroes the wall-clock keys — so
 * replaying the byte-exact first answer for an identical request is
 * indistinguishable from re-exploring.  The two places that could
 * break this are excluded by construction:
 *
 *  - budget-stopped runs (Incomplete verdicts) stop at
 *    wall-clock-/thread-dependent points, so cacheable() rejects
 *    them — every Incomplete is re-run;
 *  - requests that resolve differently must key differently, which
 *    is the canonicalizer's contract (serve/server.cc): the key is
 *    built from *resolved* values (registry-canonical scenario name
 *    or content-hash case name, resolved device count, the 7 config
 *    bits, sorted-deduped families, resolved thread count and
 *    symmetry, caps, deterministic bit), so knob order and name
 *    aliases collapse and distinct semantics never alias.
 *
 * Thread-safe; one mutex (lookups copy small strings, eviction is
 * O(1) via the list/map classic).
 */

#ifndef CXL_SERVE_CACHE_HH
#define CXL_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "api/check.hh"
#include "serve/protocol.hh"

namespace cxl::serve
{

/** Cache effectiveness counters (monotonic over a server's life). */
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0; ///< current population
};

/** True when @p result may be memoized: every verdict except a
 * budget-stopped Incomplete (see the file comment). */
inline bool
cacheable(const CheckResult &result)
{
    return result.verdict != CheckResult::Verdict::Incomplete;
}

class ResultCache
{
  public:
    /** @p maxEntries == 0 disables caching (every lookup misses,
     * inserts are dropped). */
    explicit ResultCache(std::size_t maxEntries)
        : maxEntries_(maxEntries)
    {
    }

    /** The payload cached under @p key, refreshed to most recently
     * used; counts a hit or miss. */
    std::optional<ResultPayload> lookup(const std::string &key);

    /** Memoize @p payload under @p key (refreshes an existing entry),
     * evicting the least recently used entry past capacity. */
    void insert(const std::string &key, const ResultPayload &payload);

    CacheStats stats() const;

  private:
    struct Entry {
        std::string key;
        ResultPayload payload;
    };

    const std::size_t maxEntries_;
    mutable std::mutex mutex_;
    std::list<Entry> lru_; ///< front = most recently used
    std::map<std::string, std::list<Entry>::iterator> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace cxl::serve

#endif // CXL_SERVE_CACHE_HH
