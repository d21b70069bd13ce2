/**
 * @file
 * Shared pieces of the checker benchmark: the clock, full-precision
 * JSON number rendering, and the workload entry points main()
 * dispatches to.
 *
 * Each workload prints one JSON object of raw measurements on stdout
 * (every sample, every counter); run.py turns it into medians,
 * percentiles and the pass/fail gate.
 */

#ifndef CXLBENCH_BENCH_HH
#define CXLBENCH_BENCH_HH

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cxlbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t)
{
    return secondsBetween(t, Clock::now());
}

/**
 * Whether one more unit of work, taking the mean of the @p done units
 * that used @p elapsed seconds, still ends within the measured span.
 * Runs stop short rather than overshoot, so a run lasts about the
 * span however long one unit is (at least one unit always runs).
 */
inline bool
anotherFits(double elapsed, std::size_t done, double span)
{
    return elapsed * static_cast<double>(done + 1) /
               static_cast<double>(done) <=
           span;
}

/** A double with every significant digit (round-trips exactly). */
inline std::string
fullNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

inline std::string
fullNum(std::uint64_t v)
{
    return std::to_string(v);
}

/** JSON array of full-precision numbers. */
template <typename T>
std::string
numArray(const std::vector<T> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ",";
        out += fullNum(values[i]);
    }
    return out + "]";
}

/**
 * Pins the calling thread to each CPU it may run on, one after the
 * other, and restores its original affinity when destroyed.
 *
 * On a shared virtual machine one vCPU can run 40% slower than
 * another for minutes at a time (busy neighbours on its host core).
 * A single-threaded unit of work lands on one of them, so a run of
 * such units would measure whichever vCPU the scheduler happened to
 * pick.  Rotating the units over every allowed CPU makes each run's
 * median cover all of them.  Threads created while pinned inherit
 * the pin, so only single-threaded work may run under a rotation.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original_))
                cpus_.push_back(c);
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next CPU in turn (a no-op without affinity data). */
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** What every workload is asked to do. */
struct RunArgs {
    std::uint64_t seed = 1;
    double seconds = 1; ///< measured span (see anotherFits)
    bool trace = false; ///< also produce the per-layer replay
    Clock::time_point processStart;
};

/** nosym3 / sym3: repeated complete explorations through
 * CheckSession; traced, one engine run plus the layer replay. */
std::string runExploreWorkload(const std::string &name,
                               const RunArgs &args);

/** served: closed-loop clients against an in-process serve::Server. */
std::string runServedWorkload(const RunArgs &args);

} // namespace cxlbench

#endif // CXLBENCH_BENCH_HH
