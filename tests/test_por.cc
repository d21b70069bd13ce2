/**
 * @file
 * Partial-order reduction tests.
 *
 * Three layers of defence:
 *
 *  1. Footprint validation — every rule's declared write set must
 *     contain every byte its action actually changes, and every pair
 *     the footprints declare independent must really commute (and
 *     preserve each other's enabledness) on a corpus of reachable
 *     states.  An under-declared footprint is the one bug class that
 *     could silently break the reduction, so it is tested empirically
 *     against the semantics, not the annotations.
 *
 *  2. Mechanism tests — permutation remap consistency (the sleep-mask
 *     relabelling used under symmetry), the rule-count ceiling.
 *
 *  3. End-to-end soundness (the ISSUE's equivalence obligation) —
 *     every scenario-registry entry at 2 and 3 devices, at 1/4/8
 *     threads, yields the same verdict, violated-conjunct set, state
 *     count, diameter and violation depth with POR on as off; only
 *     the transition count may (and at 3 devices must) drop.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/check.hh"
#include "api/scenarios.hh"
#include "checker/por.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"
#include "protocol/state.hh"

namespace cxl
{
namespace
{

// ------------------------------------------------ corpus collection

/** Raw active-prefix bytes of a state (the dedup key). */
std::string
stateKey(const SystemState &s)
{
    return std::string(reinterpret_cast<const char *>(&s),
                       s.activeBytes());
}

/**
 * BFS prefix of (rules, scenario): up to @p limit distinct reachable
 * states, in deterministic order.
 */
std::vector<SystemState>
corpus(const RuleSet &rules, const Scenario &scenario,
       std::size_t limit, bool canonicalise)
{
    std::vector<SystemState> states;
    std::set<std::string> seen;
    SystemState init = scenario.initial;
    if (canonicalise)
        init.canonicaliseTids();
    states.push_back(init);
    seen.insert(stateKey(init));
    for (std::size_t at = 0; at < states.size() && states.size() < limit;
         ++at) {
        const SystemState cur = states[at];
        for (const RuleSet::Successor &succ :
             rules.successors(cur, scenario, canonicalise)) {
            if (states.size() >= limit)
                break;
            if (seen.insert(stateKey(succ.state)).second)
                states.push_back(succ.state);
        }
    }
    return states;
}

// ------------------------------------------------- atom byte ranges

struct ByteRange {
    std::size_t off;
    std::size_t len;
};

/** Byte ranges covered by footprint atom bit @p bit. */
std::vector<ByteRange>
atomRanges(int bit)
{
    if ((1u << bit) == fp::kCounter)
        return {{offsetof(SystemState, counter), 1}};
    if ((1u << bit) == fp::kHost) {
        return {{offsetof(SystemState, hval), 1},
                {offsetof(SystemState, hstate), 1},
                {offsetof(SystemState, hreq), 1}};
    }
    const int dev = (bit - 2) / fp::kAtomsPerDevice;
    const int sub = (bit - 2) % fp::kAtomsPerDevice;
    const std::size_t base =
        offsetof(SystemState, dev) + dev * sizeof(DeviceState);
    switch (sub) {
      case 0: // core: val, state, buffer, pc
        return {{base + offsetof(DeviceState, val), 1},
                {base + offsetof(DeviceState, state), 1},
                {base + offsetof(DeviceState, buffer), sizeof(DBuffer)},
                {base + offsetof(DeviceState, pc), 1}};
      case 1:
        return {{base + offsetof(DeviceState, d2hReq),
                 sizeof(DeviceState{}.d2hReq)}};
      case 2:
        return {{base + offsetof(DeviceState, d2hRsp),
                 sizeof(DeviceState{}.d2hRsp)}};
      case 3:
        return {{base + offsetof(DeviceState, d2hData),
                 sizeof(DeviceState{}.d2hData)}};
      case 4:
        return {{base + offsetof(DeviceState, h2dReq),
                 sizeof(DeviceState{}.h2dReq)}};
      case 5:
        return {{base + offsetof(DeviceState, h2dRsp),
                 sizeof(DeviceState{}.h2dRsp)}};
      default:
        return {{base + offsetof(DeviceState, h2dData),
                 sizeof(DeviceState{}.h2dData)}};
    }
}

/** Byte mask (one flag per state byte) of an atom set. */
std::vector<bool>
atomByteMask(std::uint32_t atoms)
{
    std::vector<bool> mask(sizeof(SystemState), false);
    for (int bit = 0; bit < fp::kNumAtoms; ++bit) {
        if (!(atoms & (1u << bit)))
            continue;
        for (const ByteRange &r : atomRanges(bit)) {
            for (std::size_t k = 0; k < r.len; ++k)
                mask[r.off + k] = true;
        }
    }
    return mask;
}

/** The model/config pairs the validation sweeps: the correct model
 * and an everything-mutated one, at 2 and 3 devices. */
std::vector<ProtocolConfig>
validationConfigs()
{
    ProtocolConfig mutated;
    mutated.hostCleanPull = true;
    mutated.relaxSnoopPushesGo = true;
    mutated.relaxSmadSnoopGuard = true;
    mutated.relaxGoTailgate = true;
    mutated.relaxOneSnoop = true;
    return {ProtocolConfig::correct(), mutated};
}

// ---------------------------------------------- footprint validation

TEST(Footprints, DeclaredWritesContainEveryChangedByte)
{
    for (const ProtocolConfig &config : validationConfigs()) {
        for (int ndev : {2, 3}) {
            RuleSet rules(config, ndev);
            Scenario scn = Scenario::freeRunScenario(ndev);
            // Raw (non-canonicalised) firing isolates the rule's own
            // writes from the tid-relabelling pass.
            for (const SystemState &s :
                 corpus(rules, scn, 800, /*canonicalise=*/false)) {
                for (const RuleSet::Successor &succ :
                     rules.successors(s, scn, false)) {
                    const auto allowed =
                        atomByteMask(succ.rule->footprint.writes);
                    const auto *a =
                        reinterpret_cast<const unsigned char *>(&s);
                    const auto *b =
                        reinterpret_cast<const unsigned char *>(
                            &succ.state);
                    for (std::size_t off = 0; off < s.activeBytes();
                         ++off) {
                        if (a[off] != b[off]) {
                            ASSERT_TRUE(allowed[off])
                                << succ.rule->name
                                << " changed undeclared byte " << off
                                << " (ndev " << ndev << ")";
                        }
                    }
                }
            }
        }
    }
}

TEST(Footprints, IndependentPairsCommuteAndPreserveEnabledness)
{
    for (const ProtocolConfig &config : validationConfigs()) {
        for (int ndev : {2, 3}) {
            RuleSet rules(config, ndev);
            Scenario scn = Scenario::freeRunScenario(ndev);
            Context ctx{&scn};
            for (const SystemState &s :
                 corpus(rules, scn, 600, /*canonicalise=*/true)) {
                std::vector<const Rule *> enabled;
                for (const Rule &r : rules.rules()) {
                    if (r.guard(s, ctx))
                        enabled.push_back(&r);
                }
                for (std::size_t x = 0; x < enabled.size(); ++x) {
                    for (std::size_t y = x + 1; y < enabled.size();
                         ++y) {
                        const Rule &a = *enabled[x];
                        const Rule &b = *enabled[y];
                        if (!independentCanonical(a.footprint,
                                                  b.footprint)) {
                            continue;
                        }
                        SystemState sa = s, sb = s;
                        ASSERT_TRUE(a.apply(sa, ctx));
                        ASSERT_TRUE(b.apply(sb, ctx));
                        // Neither may disable (or re-guard) the other.
                        ASSERT_TRUE(b.guard(sa, ctx))
                            << a.name << " disabled " << b.name;
                        ASSERT_TRUE(a.guard(sb, ctx))
                            << b.name << " disabled " << a.name;
                        SystemState ab = sa, ba = sb;
                        ASSERT_TRUE(b.apply(ab, ctx));
                        ASSERT_TRUE(a.apply(ba, ctx));
                        if (independent(a.footprint, b.footprint)) {
                            // Strict disjointness: exact commutation.
                            ASSERT_TRUE(ab == ba)
                                << a.name << " / " << b.name;
                        }
                        // The engine's requirement: commutation
                        // modulo tid canonicalisation.
                        ab.canonicaliseTids();
                        ba.canonicaliseTids();
                        ASSERT_TRUE(ab == ba)
                            << a.name << " / " << b.name
                            << " (canonical)";
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------- mechanism

TEST(PorContext, PermutationRemapMatchesConjugatedFootprints)
{
    RuleSet rules(ProtocolConfig::correct(), 3);
    std::uint8_t perm[kMaxDevices] = {0, 1, 2, 3};
    // Every non-identity permutation of 3 devices (new->old).
    std::vector<std::array<std::uint8_t, kMaxDevices>> perms;
    while (std::next_permutation(perm, perm + 3))
        perms.push_back({perm[0], perm[1], perm[2], 3});
    for (const auto &p : perms) {
        std::uint8_t old_to_new[kMaxDevices] = {0, 0, 0, 3};
        for (int n = 0; n < 3; ++n)
            old_to_new[p[n]] = static_cast<std::uint8_t>(n);
        for (const Rule &r : rules.rules()) {
            const int image = rules.permutedRuleId(r.id, old_to_new);
            ASSERT_GE(image, 0) << r.name;
            const Rule &img = rules.rules()[image];
            // Conjugated footprint: device atoms relabelled through
            // old->new, host/counter atoms fixed.
            auto remap_atoms = [&](std::uint32_t atoms) {
                std::uint32_t out =
                    atoms & (fp::kCounter | fp::kHost);
                for (int d = 0; d < 3; ++d) {
                    const std::uint32_t slice =
                        (atoms >> fp::devShift(d)) &
                        ((1u << fp::kAtomsPerDevice) - 1);
                    out |= slice << fp::devShift(old_to_new[d]);
                }
                return out;
            };
            EXPECT_EQ(remap_atoms(r.footprint.reads),
                      img.footprint.reads)
                << r.name << " -> " << img.name;
            EXPECT_EQ(remap_atoms(r.footprint.writes),
                      img.footprint.writes)
                << r.name << " -> " << img.name;
            EXPECT_EQ(r.footprint.counterAllocOnly,
                      img.footprint.counterAllocOnly);
        }
    }
}

TEST(PorContext, MaskRemapRoundTrips)
{
    RuleSet rules(ProtocolConfig::correct(), 3);
    PorContext por(rules, /*symmetry=*/true);
    // Swap devices 1 and 2 (new->old {1,0,2}): remapping twice is the
    // identity on every mappable rule.
    const std::uint8_t swap[kMaxDevices] = {1, 0, 2, 3};
    RuleMask mask;
    for (std::size_t r = 0; r < rules.rules().size(); r += 3)
        mask.set(r);
    const RuleMask once = por.remap(mask, swap);
    const RuleMask twice = por.remap(once, swap);
    EXPECT_TRUE(twice == mask);
    // The identity permutation maps every mask to itself.
    const std::uint8_t ident[kMaxDevices] = {0, 1, 2, 3};
    EXPECT_TRUE(por.identity(ident));
    EXPECT_TRUE(por.remap(mask, ident) == mask);
}

TEST(PorContext, RejectsOversizedRuleSets)
{
    RuleSet rules(ProtocolConfig::correct(), 2);
    while (rules.rules().size() <= kMaxPorRules) {
        Rule r;
        r.name = "pad" + std::to_string(rules.rules().size());
        r.guard = [](const SystemState &, const Context &) {
            return false;
        };
        r.apply = [](SystemState &, const Context &) { return true; };
        rules.addRule(std::move(r));
    }
    EXPECT_THROW(PorContext(rules, false), std::runtime_error);
}

// ------------------------------------- end-to-end verdict soundness

/** Everything a verdict comparison cares about. */
struct VerdictImage {
    CheckResult::Verdict verdict;
    std::uint64_t states;
    std::uint32_t diameter;
    bool completed;
    std::string violation; // kind/conjunct/family/depth, or "-"
    std::vector<std::string> failedConjuncts;

    friend bool
    operator==(const VerdictImage &a, const VerdictImage &b)
    {
        return a.verdict == b.verdict && a.states == b.states &&
               a.diameter == b.diameter &&
               a.completed == b.completed &&
               a.violation == b.violation &&
               a.failedConjuncts == b.failedConjuncts;
    }
};

VerdictImage
imageOf(const CheckResult &res)
{
    VerdictImage img;
    img.verdict = res.verdict;
    img.states = res.states;
    img.diameter = res.diameter;
    img.completed = res.completed;
    if (res.violation) {
        img.violation = std::to_string(
                            static_cast<int>(res.violation->kind)) +
                        "/" + res.violation->conjunctName + "/" +
                        res.violation->conjunctFamily + "/" +
                        std::to_string(res.violation->depth);
    } else {
        img.violation = "-";
    }
    for (const ConjunctStatus &c : res.conjuncts) {
        if (!c.held)
            img.failedConjuncts.push_back(c.name);
    }
    return img;
}

CheckResult
runScenario(CheckSession &session, const std::string &name,
            int devices, std::size_t threads, bool por)
{
    CheckRequest req;
    req.scenario = name;
    req.devices = devices;
    EngineOptions eng;
    eng.threads = threads;
    eng.por = por;
    req.engine = eng;
    return session.run(req);
}

TEST(PorSoundness, EveryRegistryScenarioKeepsItsVerdict)
{
    CheckSession session;
    for (const scenarios::Entry &entry : scenarios::all()) {
        for (int devices : {2, 3}) {
            if (!entry.deviceScalable &&
                entry.fixedDevices != devices) {
                continue;
            }
            const CheckResult base =
                runScenario(session, entry.name, devices, 1, false);
            const VerdictImage want = imageOf(base);
            for (std::size_t threads : {1u, 4u, 8u}) {
                const CheckResult reduced = runScenario(
                    session, entry.name, devices, threads, true);
                EXPECT_TRUE(imageOf(reduced) == want)
                    << entry.name << " devices " << devices
                    << " threads " << threads << "\n  por: "
                    << reduced.verdictText()
                    << "\n  base: " << base.verdictText();
                EXPECT_LE(reduced.transitions, base.transitions)
                    << entry.name;
                // Fired + slept = the unreduced fan-out of the same
                // (identical) state set — exactly.
                if (base.completed) {
                    EXPECT_EQ(reduced.transitions +
                                  reduced.sleptTransitions,
                              base.transitions)
                        << entry.name << " devices " << devices;
                }
            }
        }
    }
}

TEST(PorSoundness, ThreeDeviceFreeRunMeetsTheReductionTarget)
{
    // The acceptance bar: the 3-device symmetry-reduced free run must
    // shed at least 30% of the recorded 517,428-transition baseline
    // while SWMR and the full invariant still hold on the identical
    // 144,294-state space.  Deterministic for any thread count.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    req.devices = 3;
    EngineOptions eng;
    eng.threads = 2;
    eng.por = true;
    req.engine = eng;
    const CheckResult res = session.run(req);
    EXPECT_EQ(res.verdict, CheckResult::Verdict::Holds);
    EXPECT_TRUE(res.symmetryReduction);
    EXPECT_EQ(res.states, 144294u);
    EXPECT_EQ(res.diameter, 45u);
    EXPECT_EQ(res.transitions + res.sleptTransitions, 517428u);
    EXPECT_LE(res.transitions, 517428u * 7 / 10)
        << "POR reduction fell below 30%";
    // Per-rule slept counters tie out with the total.
    std::uint64_t slept = 0;
    for (const RuleFire &rf : res.ruleFires)
        slept += rf.slept;
    EXPECT_EQ(slept, res.sleptTransitions);
}

TEST(PorSoundness, ComposesWithCompactionBitIdentically)
{
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    req.devices = 2;
    EngineOptions eng;
    eng.threads = 4;
    eng.por = true;
    eng.store = StoreKind::InRamCompact;
    req.engine = eng;
    const CheckResult res = session.run(req);
    EXPECT_EQ(res.verdict, CheckResult::Verdict::Holds);
    EXPECT_TRUE(res.compaction);
    EXPECT_EQ(res.states, 5218u);
    EXPECT_EQ(res.diameter, 27u);

    eng.store = StoreKind::InRam;
    req.engine = eng;
    const CheckResult full = session.run(req);
    EXPECT_EQ(full.transitions, res.transitions);
    EXPECT_EQ(full.sleptTransitions, res.sleptTransitions);
}

} // namespace
} // namespace cxl
