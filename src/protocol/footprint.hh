/**
 * @file
 * Static dependency footprints of the transition rules: the atoms of
 * SystemState a rule reads and writes.  The partial-order reduction
 * derives rule independence from them, and rule/conjunct triggers
 * (protocol/trigger.hh) name the channels they need non-empty with
 * the same channel atoms.
 */

#ifndef CXL_PROTOCOL_FOOTPRINT_HH
#define CXL_PROTOCOL_FOOTPRINT_HH

#include <cstdint>

#include "protocol/state.hh"

namespace cxl
{

// --- Static dependency footprints (partial-order reduction) ---------
//
// Every rule declares which *atoms* of the system state its guard and
// action read and which its action writes.  Atoms are coarse,
// disjoint slices of SystemState chosen so that footprint disjointness
// implies true commutation: the transaction counter, the host
// directory block (hval + hstate + hreq), and per device slot the
// cacheline core (val + state + buffer + pc) and each of the six
// message channels.  The checker derives a conservative independence
// relation from these masks — two rules are independent iff neither
// writes an atom the other reads or writes — which is what the
// sleep-set partial-order reduction prunes interleavings with.
namespace fp
{

/** Transaction-identifier counter (tid allocation). */
constexpr std::uint32_t kCounter = 1u << 0;

/** Host directory block: hval, hstate and the hreq requester byte. */
constexpr std::uint32_t kHost = 1u << 1;

/** Atoms per device slot: core plus the six channels. */
constexpr int kAtomsPerDevice = 7;

/** First atom bit of device slot @p d. */
constexpr int
devShift(int d)
{
    return 2 + d * kAtomsPerDevice;
}

/** Device cacheline core: val, state, buffer and pc. */
constexpr std::uint32_t
core(int d)
{
    return 1u << devShift(d);
}
constexpr std::uint32_t
d2hReq(int d)
{
    return 1u << (devShift(d) + 1);
}
constexpr std::uint32_t
d2hRsp(int d)
{
    return 1u << (devShift(d) + 2);
}
constexpr std::uint32_t
d2hData(int d)
{
    return 1u << (devShift(d) + 3);
}
constexpr std::uint32_t
h2dReq(int d)
{
    return 1u << (devShift(d) + 4);
}
constexpr std::uint32_t
h2dRsp(int d)
{
    return 1u << (devShift(d) + 5);
}
constexpr std::uint32_t
h2dData(int d)
{
    return 1u << (devShift(d) + 6);
}

/** Every atom of device slot @p d. */
constexpr std::uint32_t
devAll(int d)
{
    return ((1u << kAtomsPerDevice) - 1) << devShift(d);
}

/** Total atom count and the all-atoms mask (the conservative
 * default: a rule without a tighter annotation conflicts with
 * everything and is never reduced against). */
constexpr int kNumAtoms = 2 + kMaxDevices * kAtomsPerDevice;
constexpr std::uint32_t kAll = (1u << kNumAtoms) - 1;

/** Read set of sharerView()/ownerView() for device @p d. */
constexpr std::uint32_t
trackView(int d)
{
    return core(d) | d2hReq(d) | h2dRsp(d) | h2dData(d);
}

/** Read set of goSendAllowed() for device @p d. */
constexpr std::uint32_t
goSend(int d)
{
    return h2dReq(d) | d2hRsp(d) | d2hData(d);
}

/** Read set of grantRoom() (pushGrant headroom) for device @p d. */
constexpr std::uint32_t
grantRoom(int d)
{
    return h2dRsp(d) | h2dData(d);
}

/** OR of @p atom_of(k) over every active device k != i. */
template <typename AtomOf>
constexpr std::uint32_t
allOthers(int i, int ndev, AtomOf atom_of)
{
    std::uint32_t m = 0;
    for (int k = 0; k < ndev; ++k) {
        if (k != i)
            m |= atom_of(k);
    }
    return m;
}

/** A rule's declared read/write atom sets. */
struct Footprint {
    std::uint32_t reads = kAll;
    std::uint32_t writes = kAll;

    /**
     * The rule's only counter access is allocating a fresh tid (plus
     * the canonicalisation-stable `counter < kCounterMax` guard).
     * Two such rules on otherwise-disjoint footprints commute
     * *modulo tid canonicalisation*: swapping the allocation order
     * permutes the raw tid values, and first-appearance relabelling
     * maps both orders to the same canonical state.  The checker may
     * therefore ignore the counter atom between two alloc-only rules
     * when it canonicalises tids (which every exploration does).
     */
    bool counterAllocOnly = false;

    /** Neither rule writes an atom the other touches. */
    friend constexpr bool
    independent(const Footprint &a, const Footprint &b)
    {
        return (a.writes & (b.reads | b.writes)) == 0 &&
               (b.writes & (a.reads | a.writes)) == 0;
    }

    /**
     * Independence under tid canonicalisation: as independent(), but
     * the counter conflict between two alloc-only rules is forgiven
     * (see counterAllocOnly).
     */
    friend constexpr bool
    independentCanonical(const Footprint &a, const Footprint &b)
    {
        if (a.counterAllocOnly && b.counterAllocOnly) {
            const std::uint32_t drop = ~kCounter;
            return ((a.writes & drop) &
                    ((b.reads | b.writes) & drop)) == 0 &&
                   ((b.writes & drop) &
                    ((a.reads | a.writes) & drop)) == 0;
        }
        return independent(a, b);
    }
};

} // namespace fp

} // namespace cxl

#endif // CXL_PROTOCOL_FOOTPRINT_HH
