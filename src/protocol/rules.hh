/**
 * @file
 * The transition rules of the CXL.cache model (paper Section 3.3).
 *
 * Each rule is a guarded command `(name, device, guard, action)`
 * exactly in the style of paper Fig. 4: the guard is a predicate over
 * the full system state; the action updates the state atomically.
 *
 * A RuleSet is built from a ProtocolConfig: spec-conformant toggles
 * select optional flows (CleanEvictNoData, host clean-data pulls, the
 * Section 4.4 stale-evict optimisation), and mutation flags add the
 * deliberately-broken rules (e.g. Table 3's ISADSnpInv) or strip
 * guards (Snoop-pushes-GO) for the restriction-relaxation experiments
 * of Section 5.2.
 */

#ifndef CXL_PROTOCOL_RULES_HH
#define CXL_PROTOCOL_RULES_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "protocol/config.hh"
#include "protocol/footprint.hh"
#include "protocol/scenario.hh"
#include "protocol/state.hh"
#include "protocol/trigger.hh"

namespace cxl
{

/** Evaluation context handed to guards and actions. */
struct Context {
    const Scenario *scenario;
};

/**
 * One transition rule.  `apply` returns false iff a channel push
 * overflowed physical capacity — reachable only in mutated models and
 * reported by the explorer as a structural violation.
 */
struct Rule {
    std::uint16_t id = 0;
    std::string name;
    int dev = 0;          ///< primary device (0-based)
    bool mutated = false; ///< rule exists only because of a mutation

    /**
     * Static dependency footprint (see fp::Footprint).  Defaults to
     * the all-atoms footprint, which is always sound: an unannotated
     * rule (e.g. an addRule test hook) conflicts with every rule and
     * is simply never reduced against.
     */
    fp::Footprint footprint;

    /**
     * Necessary condition for the guard (see protocol/trigger.hh);
     * successor enumeration evaluates the guard only on states that
     * match it.  Defaults to always, which is always sound.
     */
    Trigger trigger;

    /**
     * Instantiation template identity, for mapping a rule to its
     * image under a device permutation: `base` names the rule
     * template (the name without device suffixes) and `args` holds
     * the 0-based device indices it was instantiated over (device
     * rules: (d); host pair rules: (i, o); chained snoops:
     * (i, o, o2)).  Empty base = not permutation-mappable (custom
     * rules), which only costs reduction, never soundness.
     */
    std::string base;
    std::array<std::int8_t, 3> args{-1, -1, -1};

    std::function<bool(const SystemState &, const Context &)> guard;
    std::function<bool(SystemState &, const Context &)> apply;
};

/**
 * The complete rule set for one protocol configuration.
 */
class RuleSet
{
  public:
    /** Successor state produced by firing one rule. */
    struct Successor {
        const Rule *rule;
        SystemState state;
        bool overflow;
    };

    explicit RuleSet(ProtocolConfig config,
                     int numDevices = kDefaultNumDevices);

    const std::vector<Rule> &rules() const { return rules_; }
    const ProtocolConfig &config() const { return config_; }

    /** Device count the rules were instantiated for. */
    int numDevices() const { return num_devices_; }

    /** Number of rules excluding mutation-only rules. */
    std::size_t baseRuleCount() const;

    /** Find a rule by exact name; nullptr when absent. */
    const Rule *find(const std::string &name) const;

    /**
     * Append a custom rule (id assigned by the set).  Extension point
     * for experiments and tests that need behaviour outside the
     * ProtocolConfig space — e.g. deliberately overflowing a channel
     * to exercise the checker's structural-violation reporting.
     */
    void addRule(Rule rule);

    /**
     * Enumerate all successors of @p state.
     *
     * @param canonicalise relabel tids in each successor (used by the
     *        explorer to keep free-run state spaces finite).
     */
    std::vector<Successor>
    successors(const SystemState &state, const Scenario &scenario,
               bool canonicalise = false) const;

    /**
     * Enumerate successors into a caller-owned buffer (cleared first).
     * The parallel explorer reuses one buffer per worker so the hot
     * path performs no allocation once buffer capacity has warmed up.
     * Only rules whose trigger matches @p state have their guard
     * evaluated; successors come in ascending rule id order.
     */
    void successorsInto(const SystemState &state,
                        const Scenario &scenario, bool canonicalise,
                        std::vector<Successor> &out) const;

    /**
     * Partial-order-reduced successor enumeration: every candidate
     * guard is still evaluated (the enabled set must be exact for
     * deadlock detection and sleep-set bookkeeping), but rules whose
     * bit is set in @p sleep are not fired — their ids are appended to
     * @p slept instead of producing a successor.  @p sleep points at
     * ceil(rules()/64) little-endian words.
     */
    void successorsPor(const SystemState &state,
                       const Scenario &scenario, bool canonicalise,
                       const std::uint64_t *sleep,
                       std::vector<Successor> &out,
                       std::vector<std::uint16_t> &slept) const;

    /**
     * The rule implementing the same template as rule @p id after the
     * device relabelling old index -> @p oldToNew[old].  Returns -1
     * when the rule carries no template identity (custom rules) or
     * the image instance does not exist.  Used by the checker to
     * remap sleep-set masks when symmetry canonicalisation permutes
     * device slots.
     */
    int permutedRuleId(std::uint16_t id,
                       const std::uint8_t *oldToNew) const;

    /**
     * Fire the named rule on @p state if enabled.
     *
     * @retval true if the rule was enabled and applied.
     */
    bool fire(const std::string &name, SystemState &state,
              const Scenario &scenario) const;

  private:
    /** (base, args) -> rule id, for permutedRuleId. */
    void indexInstances();

    ProtocolConfig config_;
    int num_devices_;
    std::vector<Rule> rules_;
    /** (instance hash, rule id), sorted; see permutedRuleId. */
    std::vector<std::pair<std::uint64_t, std::uint16_t>> instances_;
    TriggerIndex triggers_;
};

/// Internal: populate device-side rules for device @p d (0-based).
void addDeviceRules(std::vector<Rule> &rules, int d,
                    const ProtocolConfig &config);

/// Internal: populate host-side rules serving requester/evicter
/// @p d (0-based), with snoop targets ranging over the other
/// @p num_devices - 1 devices.
void addHostRules(std::vector<Rule> &rules, int d,
                  const ProtocolConfig &config, int num_devices);

// --- Tracking-view helpers (paper Section 8, "perfect tracking") ----

/**
 * The host's perfect-tracking view of whether device @p j holds, or is
 * in the middle of being granted, a shared copy.
 */
bool sharerView(const SystemState &s, int j);

/**
 * The host's perfect-tracking view of whether device @p j owns, or is
 * being granted ownership of, the line.
 */
bool ownerView(const SystemState &s, int j);

/** Device states in which sharerView() can hold (for triggers). */
constexpr std::uint32_t kSharerViewStates =
    dset({DState::S, DState::SMAD, DState::ISD, DState::ISA, DState::SIA,
          DState::SIAC, DState::ISAD});

/** Device states in which ownerView() can hold (for triggers). */
constexpr std::uint32_t kOwnerViewStates =
    dset({DState::M, DState::IMD, DState::IMA, DState::SMD, DState::SMA,
          DState::MIA, DState::IMAD, DState::SMAD});

/**
 * GO-cannot-tailgate-snoop (CXL 3.1 Section 3.2.5.2): the host may
 * send a GO-class message to device @p i only when the H2D Request,
 * D2H Response and D2H Data channels of @p i are all empty.
 */
bool goSendAllowed(const SystemState &s, int i);

/** True iff any active device other than @p i is a tracked sharer. */
bool anyOtherSharer(const SystemState &s, int i);

/**
 * True iff no grant/forward data is in flight to any active device
 * other than @p i.  Gates ownership grants: a GO-M must not be sent
 * while shareable data still travels to some other device (the
 * paper's first Section 6 sample conjunct, generalised from "the
 * snooped device" to all peers).
 */
bool otherGrantDataDrained(const SystemState &s, int i);

} // namespace cxl

#endif // CXL_PROTOCOL_RULES_HH
