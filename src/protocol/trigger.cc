#include "protocol/trigger.hh"

#include <algorithm>

namespace cxl
{

bool
Trigger::matches(const SystemState &s) const
{
    if (!((hstates >> static_cast<int>(s.hstate)) & 1u))
        return false;
    for (int k = 0; k < kMaxDevices; ++k) {
        const DeviceState &d = s.dev[k];
        if (!((dstates[k] >> static_cast<int>(d.state)) & 1u))
            return false;
        if (channelBits(nonEmpty, k) & ~channelOccupancy(d))
            return false;
    }
    return true;
}

namespace
{

/** Set bit @p id in every row of @p rows (@p words apart) whose value
 * is in @p values. */
void
setForValues(std::uint64_t *rows, std::size_t words, std::uint32_t values,
             std::size_t id)
{
    for (; values; values &= values - 1) {
        const auto v = static_cast<std::size_t>(__builtin_ctz(values));
        rows[v * words + id / 64] |= 1ull << (id % 64);
    }
}

} // namespace

TriggerIndex::TriggerIndex(std::size_t n, const void *items,
                           const Trigger &(*at)(const void *, std::size_t))
    : words_((n + 63) / 64)
{
    for (std::size_t id = 0; id < n; ++id) {
        const Trigger &t = at(items, id);
        for (int k = 0; k < kMaxDevices; ++k) {
            if ((t.dstates[k] & kAllDStates) != kAllDStates ||
                channelBits(t.nonEmpty, k))
                devices_ = std::max(devices_, k + 1);
        }
    }
    const std::size_t W = words_;
    const auto ndev = static_cast<std::size_t>(devices_);
    table_.assign(
        (kNumHStates + ndev * (kNumDStates + 2 * kHalfPatterns)) * W, 0);
    if (W == 0)
        return;

    // Word-parallel build.  Unconstrained fields — most of them — go
    // into one "any value" bitset per field that is ORed into all of
    // its rows at the end; constrained fields set their id in the
    // rows of their allowed values only.  Channel requirements become
    // one bitset per (device, channel) of the ids that need it.
    constexpr std::size_t kChannels = 6;
    std::vector<std::uint64_t> scratch((1 + ndev + ndev * kChannels) * W, 0);
    std::uint64_t *any = scratch.data();
    std::uint64_t *need = any + (1 + ndev) * W;
    std::uint64_t *host = table_.data();
    std::uint64_t *states = host + stateRow(0, 0);
    for (std::size_t id = 0; id < n; ++id) {
        const Trigger &t = at(items, id);
        const std::uint64_t bit = 1ull << (id % 64);
        const std::size_t w = id / 64;
        // Masked, so a hand-written out-of-range bit cannot index past
        // a field's rows.
        const std::uint32_t hs = t.hstates & kAllHStates;
        if (hs == kAllHStates)
            any[w] |= bit;
        else
            setForValues(host, W, hs, id);
        for (std::size_t k = 0; k < ndev; ++k) {
            const std::uint32_t ds = t.dstates[k] & kAllDStates;
            if (ds == kAllDStates)
                any[(1 + k) * W + w] |= bit;
            else
                setForValues(states + k * kNumDStates * W, W, ds, id);
            for (unsigned c = channelBits(t.nonEmpty, static_cast<int>(k));
                 c; c &= c - 1) {
                const auto ch = static_cast<std::size_t>(__builtin_ctz(c));
                need[(k * kChannels + ch) * W + w] |= bit;
            }
        }
    }

    for (std::size_t v = 0; v < kNumHStates; ++v) {
        for (std::size_t w = 0; w < W; ++w)
            host[v * W + w] |= any[w];
    }
    const std::size_t tail = n % 64;
    for (std::size_t k = 0; k < ndev; ++k) {
        std::uint64_t *rows = states + k * kNumDStates * W;
        const std::uint64_t *any_k = any + (1 + k) * W;
        for (std::size_t v = 0; v < kNumDStates; ++v) {
            for (std::size_t w = 0; w < W; ++w)
                rows[v * W + w] |= any_k[w];
        }

        // Occupancy rows, per half: the full pattern admits every id;
        // any other pattern is the pattern with its lowest missing
        // channel added, minus the ids that need that channel.
        for (int half = 0; half < 2; ++half) {
            std::uint64_t *occ =
                host + occRow(static_cast<int>(k), half, 0);
            std::uint64_t *full = occ + (kHalfPatterns - 1) * W;
            for (std::size_t w = 0; w < W; ++w)
                full[w] = (w + 1 == W && tail) ? (1ull << tail) - 1 : ~0ull;
            for (int o = kHalfPatterns - 2; o >= 0; --o) {
                const int c = __builtin_ctz(~o & (kHalfPatterns - 1));
                const std::uint64_t *wider = occ + (o | 1 << c) * W;
                const std::uint64_t *needc =
                    need + (k * kChannels + static_cast<std::size_t>(
                                                3 * half + c)) *
                               W;
                std::uint64_t *row = occ + static_cast<std::size_t>(o) * W;
                for (std::size_t w = 0; w < W; ++w)
                    row[w] = wider[w] & ~needc[w];
            }
        }
    }
}

} // namespace cxl
