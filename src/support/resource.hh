/**
 * @file
 * Process resource probes: peak and current RSS, reported in
 * CheckResult JSON and the bench harnesses' memory summaries.
 *
 * Peak RSS is process-lifetime-monotone, so consecutive runs in one
 * process all report the maximum any earlier run reached; per-case
 * memory attribution must sample currentRssBytes() around each run
 * instead (CheckSession::run does, as rss_delta_bytes).
 */

#ifndef CXL_SUPPORT_RESOURCE_HH
#define CXL_SUPPORT_RESOURCE_HH

#include <cstdint>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace cxl
{

/** Peak resident set size of this process so far, in bytes (0 when
 * the platform offers no getrusage). */
inline std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
    return 0;
#endif
}

/**
 * Current resident set size of this process, in bytes (0 when the
 * platform offers no probe).  Unlike peakRssBytes() this can go down
 * when memory is released, so sampling it before and after a run
 * attributes memory to that run rather than to the process maximum.
 */
inline std::uint64_t
currentRssBytes()
{
#if defined(__linux__)
    // /proc/self/statm field 2: resident pages.
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long size = 0, resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (got != 2)
        return 0;
    const long page = sysconf(_SC_PAGESIZE);
    return static_cast<std::uint64_t>(resident) *
           static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
    // No portable current-RSS probe; fall back to the monotone peak
    // so callers still get a sane upper bound.
    return peakRssBytes();
#endif
}

/**
 * Current file-backed resident bytes of this process (0 when the
 * platform offers no probe).  On Linux this is /proc/self/statm
 * field 3 ("shared"): resident pages backed by a file — which is
 * exactly what the mmap-compact store's mappings are, plus the text
 * segment and shared libraries.  The kernel can reclaim these pages
 * without swap by writing them back, so a memory ceiling should not
 * count them the way it counts anonymous heap.
 */
inline std::uint64_t
currentFileRssBytes()
{
#if defined(__linux__)
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long size = 0, resident = 0, shared = 0;
    const int got =
        std::fscanf(f, "%llu %llu %llu", &size, &resident, &shared);
    std::fclose(f);
    if (got != 3)
        return 0;
    const long page = sysconf(_SC_PAGESIZE);
    return static_cast<std::uint64_t>(shared) *
           static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
    return 0;
#endif
}

/**
 * Current anonymous (non-file-backed) resident bytes: resident minus
 * file-backed.  This is what a --max-rss-mb ceiling should meter —
 * heap, columns, and decode buffers — so a run that pages its sealed
 * levels through file-backed mmaps is not tripped for bytes the
 * kernel can drop at will.  Falls back to currentRssBytes() where
 * the split is unavailable, which only ever over-counts (safe: the
 * ceiling trips earlier, never later).
 */
inline std::uint64_t
currentAnonRssBytes()
{
#if defined(__linux__)
    const std::uint64_t resident = currentRssBytes();
    const std::uint64_t file = currentFileRssBytes();
    return resident > file ? resident - file : 0;
#else
    return currentRssBytes();
#endif
}

} // namespace cxl

#endif // CXL_SUPPORT_RESOURCE_HH
