/**
 * @file
 * The invariant library: SWMR (paper Definition 6.1) plus the
 * auxiliary conjunct families that strengthen it into an invariant
 * that holds in every reachable state — the executable counterpart of
 * the paper's 796-conjunct inductive invariant (Section 6).
 *
 * Conjuncts are small named predicates over the system state,
 * organised into families and instantiated per device / direction.
 * The model checker evaluates all of them on every reachable state;
 * the obligation-matrix engine additionally tests each (rule,
 * conjunct) cell for inductiveness, mirroring paper Figure 1.
 */

#ifndef CXL_INVARIANTS_INVARIANT_HH
#define CXL_INVARIANTS_INVARIANT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "protocol/config.hh"
#include "protocol/rules.hh"
#include "protocol/state.hh"

namespace cxl
{

/** One named conjunct of the system invariant. */
struct Conjunct {
    std::uint16_t id = 0;
    std::string name;        ///< unique, e.g. "swmr_d1"
    std::string family;      ///< e.g. "swmr", "channel_singleton"
    std::string description; ///< human-readable statement

    /**
     * Necessary condition for the conjunct to *fail* (see
     * protocol/trigger.hh); firstFailure() evaluates it only on states
     * that match.  Defaults to always, which is always sound.
     */
    Trigger trigger;

    std::function<bool(const SystemState &, const Context &)> holds;
};

/**
 * An ordered collection of conjuncts; conceptually their conjunction.
 */
class InvariantSet
{
  public:
    InvariantSet() = default;
    explicit InvariantSet(std::vector<Conjunct> conjuncts);

    /**
     * The full strengthened invariant for a configuration.  A few
     * conjuncts hold only for particular spec-fix toggles (e.g. the
     * paper's "host and device data channels must not conflict" needs
     * the Section 4.4 stale-evict drop); the builder includes exactly
     * the conjuncts valid for @p config.  Per-device conjuncts are
     * instantiated once per active device; pairwise statements
     * quantify over every other active device internally.
     */
    static InvariantSet full(const ProtocolConfig &config,
                             int numDevices = kDefaultNumDevices);

    /** Just SWMR — demonstrably *not* inductive (paper Section 6). */
    static InvariantSet swmrOnly(int numDevices = kDefaultNumDevices);

    /** The subset of this set whose families are in @p families. */
    InvariantSet
    filtered(const std::vector<std::string> &families) const;

    const std::vector<Conjunct> &conjuncts() const { return conjuncts_; }
    std::size_t size() const { return conjuncts_.size(); }

    /**
     * Evaluate every conjunct whose trigger matches @p s (the others
     * hold by construction), in id order.
     *
     * @return the first failing conjunct, or nullptr if all hold.
     */
    const Conjunct *firstFailure(const SystemState &s,
                                 const Context &ctx) const;

    /** True iff every conjunct holds. */
    bool
    holds(const SystemState &s, const Context &ctx) const
    {
        return firstFailure(s, ctx) == nullptr;
    }

    /** Find a conjunct by name; nullptr when absent. */
    const Conjunct *find(const std::string &name) const;

    /** Distinct family names, in first-appearance order. */
    std::vector<std::string> families() const;

  private:
    std::vector<Conjunct> conjuncts_;
    TriggerIndex triggers_;
};

/**
 * The SWMR property alone (paper Definition 6.1), quantified over all
 * active device pairs: no device has write access while another has
 * read or write access.
 */
bool swmrHolds(const SystemState &s);

/**
 * Select the conjuncts to check: @p full itself when @p families is
 * empty, otherwise the filtered subset materialised into @p storage.
 * Centralises the reference-or-local lifetime subtlety for the
 * callers (CheckSession, runLitmus) that take an optional family
 * restriction; the returned reference is valid as long as both
 * arguments are.
 */
inline const InvariantSet &
selectFamilies(const InvariantSet &full,
               const std::vector<std::string> &families,
               InvariantSet &storage)
{
    if (families.empty())
        return full;
    storage = full.filtered(families);
    return storage;
}

} // namespace cxl

#endif // CXL_INVARIANTS_INVARIANT_HH
