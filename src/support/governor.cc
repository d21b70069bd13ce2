#include "support/governor.hh"

#include <csignal>
#include <mutex>

#include "support/resource.hh"

namespace cxl
{
namespace
{

/**
 * The signal handler's view of the installed token: a raw pointer to
 * the token's atomic flag (a shared_ptr can't be touched from a
 * handler).  g_signal_keepalive pins the flag's lifetime for the
 * remainder of the process, so the handler can never dangle even if
 * the installing CancelToken goes out of scope.
 *
 * g_install_mutex serializes install/uninstall; g_installed is the
 * token the bridge is currently bound to (invalid when no bridge is
 * armed), handed back verbatim to re-entrant installers.
 */
std::atomic<std::atomic<bool> *> g_signal_flag{nullptr};
std::shared_ptr<std::atomic<bool>> g_signal_keepalive;
std::mutex g_install_mutex;
CancelToken g_installed;

extern "C" void
signalCancelHandler(int sig)
{
    std::atomic<bool> *flag =
        g_signal_flag.load(std::memory_order_relaxed);
    if (flag)
        flag->store(true, std::memory_order_relaxed);
    // One graceful stop per run: re-arm the default disposition so a
    // second ^C kills a wedged process the normal way.
    std::signal(sig, SIG_DFL);
}

} // namespace

const char *
stopReasonWord(StopReason r)
{
    switch (r) {
      case StopReason::None: return "none";
      case StopReason::StateCap: return "state_cap";
      case StopReason::Deadline: return "deadline";
      case StopReason::Memory: return "memory";
      case StopReason::Cancelled: return "cancelled";
      case StopReason::ShardFull: return "shard_full";
      case StopReason::InternalError: return "internal_error";
    }
    return "?";
}

const char *
stopReasonPhrase(StopReason r)
{
    switch (r) {
      case StopReason::None: return "no stop";
      case StopReason::StateCap: return "state cap";
      case StopReason::Deadline: return "wall-clock deadline";
      case StopReason::Memory: return "memory ceiling";
      case StopReason::Cancelled: return "cancellation";
      case StopReason::ShardFull: return "state store shard full";
      case StopReason::InternalError: return "internal error";
    }
    return "?";
}

CancelToken
CancelToken::create()
{
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
}

CancelToken
installSignalCancel(const CancelToken &token)
{
    const std::lock_guard<std::mutex> lock(g_install_mutex);
    if (g_installed.valid())
        return g_installed; // first install wins; bridge untouched
    if (!token.valid())
        return token;
    g_installed = token;
    g_signal_keepalive = token.flag_;
    g_signal_flag.store(token.flag_.get(),
                        std::memory_order_release);
    std::signal(SIGINT, signalCancelHandler);
    std::signal(SIGTERM, signalCancelHandler);
    return token;
}

void
uninstallSignalCancel()
{
    const std::lock_guard<std::mutex> lock(g_install_mutex);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_signal_flag.store(nullptr, std::memory_order_release);
    g_installed = CancelToken();
    // The keepalive stays: a signal delivered between the flag load
    // and the store above may still be writing through the pointer.
}

RunGovernor::RunGovernor(const GovernorLimits &limits)
    : maxRssBytes_(limits.maxRssBytes), cancel_(limits.cancel)
{
    if (limits.maxSeconds > 0) {
        hasDeadline_ = true;
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            limits.maxSeconds));
    }
}

void
RunGovernor::poll()
{
    if (stopped())
        return;
    if (cancel_.cancelled()) {
        trip(StopReason::Cancelled);
        return;
    }
    if (hasDeadline_ &&
        std::chrono::steady_clock::now() >= deadline_) {
        trip(StopReason::Deadline);
        return;
    }
    if (maxRssBytes_ != 0) {
        const std::uint32_t n =
            polls_.fetch_add(1, std::memory_order_relaxed);
        // Meter anonymous RSS, not total: the mmap-compact store keeps
        // sealed levels in file-backed pages the kernel can reclaim
        // without swap, so counting them would spuriously trip runs
        // whose whole point is to stay under the ceiling.
        if (n % kRssSampleStride == 0 &&
            currentAnonRssBytes() > maxRssBytes_) {
            trip(StopReason::Memory);
        }
    }
}

} // namespace cxl
