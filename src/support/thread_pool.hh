/**
 * @file
 * A small shared-queue thread pool.
 *
 * The obligation-matrix engine dispatches tens of thousands of
 * independent (rule, conjunct) cells, mirroring how the paper's
 * super_sketch utility fans out concurrent sledgehammer instances.
 * A shared FIFO queue is entirely sufficient at that granularity;
 * submitBatch amortises the lock to one acquisition per fan-out.
 */

#ifndef CXL_SUPPORT_THREAD_POOL_HH
#define CXL_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cxl
{

/**
 * Fixed-size pool executing void() jobs from a shared FIFO queue.
 */
class ThreadPool
{
  public:
    /** @param num_threads worker count; 0 means hardware concurrency. */
    explicit ThreadPool(std::size_t num_threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job for asynchronous execution. */
    void submit(std::function<void()> job);

    /**
     * Enqueue @p count jobs under a single lock acquisition and one
     * broadcast — the bulk-dispatch path for fan-outs of thousands of
     * small cells, where per-submit locking measurably serialises the
     * producer.  @p jobs is consumed (moved from).
     */
    void submitBatch(std::function<void()> *jobs, std::size_t count);

    /** Block until every submitted job has completed. */
    void wait();

    /** Number of worker threads. */
    std::size_t threadCount() const { return workers_.size(); }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
};

} // namespace cxl

#endif // CXL_SUPPORT_THREAD_POOL_HH
