/**
 * @file
 * Triggers: cheap necessary conditions that let the checker skip the
 * rule guards and invariant conjuncts a state cannot fire.
 *
 * Every Rule and every Conjunct carries a Trigger, written in the
 * state's cheapest fields: the allowed host directory states, the
 * allowed state of each device's cacheline, and the message channels
 * that must be non-empty (named with the fp:: channel atoms).  A
 * rule's trigger must hold whenever its guard does; a conjunct's
 * trigger must hold whenever the conjunct fails.  The default trigger
 * allows everything, so an unannotated rule or conjunct is always a
 * candidate.
 *
 * A TriggerIndex turns the triggers of one rule or conjunct list into
 * lookup rows.  A state's signature — its host state, each device's
 * state and each device's six-bit channel occupancy — selects one row
 * per field (the occupancy as its D2H and its H2D half), and the AND
 * of those 1 + 3·ndev rows is the candidate set.  Walking only the
 * candidates, in ascending id order, visits every enabled rule and
 * every failing conjunct in the order a full scan would, because a
 * non-candidate is disabled (or holds) by construction.
 */

#ifndef CXL_PROTOCOL_TRIGGER_HH
#define CXL_PROTOCOL_TRIGGER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "protocol/footprint.hh"
#include "protocol/state.hh"

namespace cxl
{

/** Every host state, as a Trigger state mask. */
constexpr std::uint32_t kAllHStates = (1u << kNumHStates) - 1;

/** Every device state, as a Trigger state mask. */
constexpr std::uint32_t kAllDStates = (1u << kNumDStates) - 1;

/** Mask of the host states in @p set. */
constexpr std::uint32_t
hset(std::initializer_list<HState> set)
{
    std::uint32_t m = 0;
    for (HState s : set)
        m |= 1u << static_cast<int>(s);
    return m;
}

/** Mask of the device states in @p set. */
constexpr std::uint32_t
dset(std::initializer_list<DState> set)
{
    std::uint32_t m = 0;
    for (DState s : set)
        m |= 1u << static_cast<int>(s);
    return m;
}

/**
 * Six-bit channel occupancy of @p d, in fp:: channel-atom order: bit
 * c is set iff the channel of atom `fp::d2hReq(k) << c` of the
 * device's slot k is non-empty (d2hReq, d2hRsp, d2hData, h2dReq,
 * h2dRsp, h2dData).
 */
inline unsigned
channelOccupancy(const DeviceState &d)
{
    return unsigned(!d.d2hReq.empty()) | unsigned(!d.d2hRsp.empty()) << 1 |
           unsigned(!d.d2hData.empty()) << 2 |
           unsigned(!d.h2dReq.empty()) << 3 |
           unsigned(!d.h2dRsp.empty()) << 4 |
           unsigned(!d.h2dData.empty()) << 5;
}

/** The channel atoms of @p mask on device slot @p k, as occupancy bits. */
constexpr unsigned
channelBits(std::uint32_t mask, int k)
{
    return (mask >> (fp::devShift(k) + 1)) & 63u;
}

/**
 * A necessary condition on hstate, device states and channel
 * occupancy.  Build one by narrowing the always-true default:
 * `Trigger{}.host(hset({HState::S})).dev(i, kSharerViewStates)
 * .needs(fp::d2hReq(i))`.  A complemented mask (`~dset({...})`)
 * reads "any state outside the set".
 */
struct Trigger {
    std::uint32_t hstates = kAllHStates;
    std::array<std::uint32_t, kMaxDevices> dstates{
        kAllDStates, kAllDStates, kAllDStates, kAllDStates};
    /** fp:: channel atoms whose channel must be non-empty. */
    std::uint32_t nonEmpty = 0;

    /** Also require hstate to be in @p set. */
    constexpr Trigger
    host(std::uint32_t set) const
    {
        Trigger t = *this;
        t.hstates &= set;
        return t;
    }

    /** Also require dev[@p d].state to be in @p set. */
    constexpr Trigger
    dev(int d, std::uint32_t set) const
    {
        Trigger t = *this;
        t.dstates[d] &= set;
        return t;
    }

    /** Also require the channels of fp:: atoms @p channels to be
     * non-empty (core, host and counter atoms are not channels). */
    constexpr Trigger
    needs(std::uint32_t channels) const
    {
        Trigger t = *this;
        t.nonEmpty |= channels;
        return t;
    }

    /** True iff @p s satisfies the condition. */
    bool matches(const SystemState &s) const;
};

/**
 * Candidate lookup over the triggers of one rule or conjunct list
 * (ids are positions in the list).  About 3.5 KB for the 240 rules of
 * a 3-device model.  Immutable once built, so any number of threads may
 * query it.
 */
class TriggerIndex
{
  public:
    TriggerIndex() = default;

    /** Index `items[id].trigger` for every id (rules or conjuncts).
     * Reads the triggers in place: a model build pays for no copy. */
    template <typename Item>
    explicit TriggerIndex(const std::vector<Item> &items)
        : TriggerIndex(items.size(), &items,
                       [](const void *v, std::size_t id) -> const Trigger & {
                           return (*static_cast<const std::vector<Item> *>(
                               v))[id]
                               .trigger;
                       })
    {
    }

    /**
     * Call @p visit(id) for every candidate of @p s in ascending id
     * order while it returns true.  @p s must be structurally well
     * formed (enum fields in range).
     */
    template <typename Visit>
    void
    forEachCandidate(const SystemState &s, Visit visit) const
    {
        if (words_ == 0)
            return;
        const std::uint64_t *rows[1 + 3 * kMaxDevices];
        const int nrows = selectRows(s, rows);
        for (std::size_t w = 0; w < words_; ++w) {
            std::uint64_t bits = rows[0][w];
            for (int r = 1; r < nrows; ++r)
                bits &= rows[r][w];
            while (bits) {
                const std::size_t id =
                    w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
                bits &= bits - 1;
                if (!visit(id))
                    return;
            }
        }
    }

  private:
    TriggerIndex(std::size_t n, const void *items,
                 const Trigger &(*at)(const void *, std::size_t));

    /** Occupancy rows per device and half (D2H, H2D channels): one
     * per three-bit pattern.  Two halves of 8 rows, not 64 rows for
     * the six bits, keep the tables small for the model build. */
    static constexpr int kHalfPatterns = 8;

    /** Point @p rows at the signature rows of @p s; returns count. */
    int
    selectRows(const SystemState &s, const std::uint64_t **rows) const
    {
        int n = 0;
        rows[n++] = &table_[static_cast<std::size_t>(s.hstate) * words_];
        for (int k = 0; k < devices_; ++k) {
            const DeviceState &d = s.dev[k];
            const unsigned occ = channelOccupancy(d);
            rows[n++] = &table_[stateRow(k, static_cast<int>(d.state))];
            rows[n++] = &table_[occRow(k, 0, occ & 7u)];
            rows[n++] = &table_[occRow(k, 1, occ >> 3)];
        }
        return n;
    }

    std::size_t
    stateRow(int dev, int state) const
    {
        return (kNumHStates + static_cast<std::size_t>(dev) * kNumDStates +
                static_cast<std::size_t>(state)) *
               words_;
    }

    std::size_t
    occRow(int dev, int half, unsigned pattern) const
    {
        return (kNumHStates +
                static_cast<std::size_t>(devices_) * kNumDStates +
                static_cast<std::size_t>(2 * dev + half) * kHalfPatterns +
                pattern) *
               words_;
    }

    std::size_t words_ = 0;
    /** Devices any trigger constrains; later slots need no rows. */
    int devices_ = 0;
    /** Host rows, then per-device state rows, then occupancy rows. */
    std::vector<std::uint64_t> table_;
};

} // namespace cxl

#endif // CXL_PROTOCOL_TRIGGER_HH
