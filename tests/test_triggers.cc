/**
 * @file
 * Trigger soundness: the trigger-indexed successor enumeration and
 * invariant evaluation must agree exactly with a full scan.
 *
 * The oracle below walks every rule of rules() and every conjunct of
 * conjuncts() in id order and calls the guard / holds function, which
 * is what the checker did before dispatch went through TriggerIndex.
 * Two kinds of state are checked against it:
 *
 *  1. Every reachable state of the 2- and 3-device free-run spaces
 *     (tid-canonical, no symmetry reduction), for the correct model
 *     and for the everything-mutated one: indexed successorsInto and
 *     successorsPor give the same rule ids in the same order with
 *     byte-equal successors, and firstFailure the same conjunct.  A
 *     state that violates its model's invariant is checked but not
 *     expanded, as it ends a path of the checker's search; without
 *     that cut the mutated spaces grow past millions of states.
 *
 *  2. Seeded random structurally well-formed states under every
 *     ProtocolConfig toggle, most of which no model reaches: whenever
 *     a guard is true or a conjunct false, the declared trigger
 *     matches.  This catches a trigger that is too tight on a state
 *     the correct model never produces but a mutated one might.
 *
 * Finally the index itself is checked against Trigger::matches.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "invariants/invariant.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"
#include "protocol/state.hh"
#include "protocol/trigger.hh"

namespace cxl
{
namespace
{

// ----------------------------------------------------- full-scan oracle

void
oracleSuccessors(const RuleSet &rules, const SystemState &state,
                 const Scenario &scenario,
                 std::vector<RuleSet::Successor> &out)
{
    out.clear();
    Context ctx{&scenario};
    for (const Rule &rule : rules.rules()) {
        if (!rule.guard(state, ctx))
            continue;
        RuleSet::Successor &succ =
            out.emplace_back(RuleSet::Successor{&rule, state, false});
        succ.overflow = !rule.apply(succ.state, ctx);
        succ.state.canonicaliseTids();
    }
}

const Conjunct *
oracleFirstFailure(const InvariantSet &inv, const SystemState &s,
                   const Context &ctx)
{
    for (const Conjunct &c : inv.conjuncts()) {
        if (!c.holds(s, ctx))
            return &c;
    }
    return nullptr;
}

/** Same rules, same order, byte-equal successors and overflow flags. */
void
expectSameSuccessors(const std::vector<RuleSet::Successor> &got,
                     const std::vector<RuleSet::Successor> &want,
                     const SystemState &from)
{
    ASSERT_EQ(got.size(), want.size()) << from.dump();
    for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].rule->id, want[k].rule->id) << from.dump();
        ASSERT_EQ(got[k].overflow, want[k].overflow) << got[k].rule->name;
        ASSERT_EQ(std::memcmp(&got[k].state, &want[k].state,
                              sizeof(SystemState)),
                  0)
            << got[k].rule->name << " from\n" << from.dump();
    }
}

/** splitmix64: a fixed, portable stream for seeded test inputs. */
struct SplitMix {
    std::uint64_t x;

    std::uint64_t
    next()
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    unsigned
    below(unsigned n)
    {
        return static_cast<unsigned>(next() % n);
    }
};

/** The everything-mutated configuration of test_por.cc. */
ProtocolConfig
everythingMutated()
{
    ProtocolConfig mutated;
    mutated.hostCleanPull = true;
    mutated.relaxSnoopPushesGo = true;
    mutated.relaxSmadSnoopGuard = true;
    mutated.relaxGoTailgate = true;
    mutated.relaxOneSnoop = true;
    return mutated;
}

/** Buffers reused across checked states. */
struct Scratch {
    std::vector<RuleSet::Successor> want, got;
    std::vector<std::uint64_t> sleep;
    std::vector<std::uint16_t> slept;
};

/**
 * Check one state against the oracle: successorsInto, successorsPor
 * under a state-derived sleep mask, and firstFailure of every set in
 * @p invariants.  Leaves the oracle's successors in @p x.want and
 * returns the oracle's first failing conjunct of invariants.front().
 */
const Conjunct *
checkAgainstOracle(const RuleSet &rules,
                   const std::vector<const InvariantSet *> &invariants,
                   const Scenario &scenario, const SystemState &s,
                   Scratch &x)
{
    std::vector<RuleSet::Successor> &want = x.want, &got = x.got;
    oracleSuccessors(rules, s, scenario, want);
    rules.successorsInto(s, scenario, true, got);
    expectSameSuccessors(got, want, s);
    if (::testing::Test::HasFatalFailure())
        return nullptr;

    // Sleep every enabled rule whose bit the state's hash sets: the
    // fired ones must be the rest, in order, and the slept ones in
    // ascending id order too.
    std::vector<std::uint64_t> &sleep = x.sleep;
    sleep.resize((rules.rules().size() + 63) / 64);
    SplitMix bits{s.hash()};
    for (std::uint64_t &w : sleep)
        w = bits.next();
    std::vector<std::uint16_t> &slept = x.slept;
    rules.successorsPor(s, scenario, true, sleep.data(), got, slept);
    std::size_t fired = 0, asleep = 0;
    for (const RuleSet::Successor &w : want) {
        const std::uint16_t id = w.rule->id;
        if ((sleep[id >> 6] >> (id & 63)) & 1u) {
            EXPECT_LT(asleep, slept.size());
            if (asleep < slept.size()) {
                EXPECT_EQ(slept[asleep], id);
            }
            ++asleep;
        } else {
            EXPECT_LT(fired, got.size());
            if (fired < got.size()) {
                EXPECT_EQ(got[fired].rule->id, id);
                EXPECT_EQ(std::memcmp(&got[fired].state, &w.state,
                                      sizeof(SystemState)),
                          0);
            }
            ++fired;
        }
    }
    EXPECT_EQ(fired, got.size());
    EXPECT_EQ(asleep, slept.size());

    Context ctx{&scenario};
    const Conjunct *own = nullptr;
    for (const InvariantSet *inv : invariants) {
        const Conjunct *want_bad = oracleFirstFailure(*inv, s, ctx);
        EXPECT_EQ(inv->firstFailure(s, ctx), want_bad) << s.dump();
        if (inv == invariants.front())
            own = want_bad;
    }
    return own;
}

struct KeyHash {
    std::size_t
    operator()(const std::pair<std::uint64_t, std::uint64_t> &k) const
    {
        return static_cast<std::size_t>(k.first);
    }
};

/**
 * Breadth-first search over the whole tid-canonical free-run space of
 * (@p config, @p ndev) with the oracle's successors, checking every
 * state and expanding those that satisfy the model's own invariant;
 * returns the number of states visited.  States are keyed by their
 * (hash, fingerprint) pair, so the frontier is the only copy.
 */
std::size_t
checkWholeSpace(const ProtocolConfig &config, int ndev)
{
    const RuleSet rules(config, ndev);
    const InvariantSet own = InvariantSet::full(config, ndev);
    const InvariantSet correct =
        InvariantSet::full(ProtocolConfig::correct(), ndev);
    std::vector<const InvariantSet *> invariants{&own};
    if (config.mutated())
        invariants.push_back(&correct);
    const Scenario scenario = Scenario::freeRunScenario(ndev);

    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, KeyHash>
        seen;
    SystemState init = scenario.initial;
    init.canonicaliseTids();
    std::vector<SystemState> frontier{init}, next;
    seen.insert({init.hash(), init.fingerprint()});
    Scratch x;
    while (!frontier.empty()) {
        next.clear();
        for (const SystemState &s : frontier) {
            const bool violates = checkAgainstOracle(
                                      rules, invariants, scenario, s, x) !=
                                  nullptr;
            if (::testing::Test::HasFailure())
                return seen.size();
            if (violates)
                continue;
            for (const RuleSet::Successor &succ : x.want) {
                if (seen.insert({succ.state.hash(),
                                 succ.state.fingerprint()})
                        .second)
                    next.push_back(succ.state);
            }
        }
        frontier.swap(next);
    }
    return seen.size();
}

TEST(Triggers, IndexedDispatchMatchesFullScanOnEveryReachableState)
{
    // The correct model's raw (unreduced) counts are the committed
    // goldens; the mutated counts pin the size of what was covered.
    EXPECT_EQ(checkWholeSpace(ProtocolConfig::correct(), 2), 5218u);
    EXPECT_EQ(checkWholeSpace(everythingMutated(), 2), 6886u);
    EXPECT_EQ(checkWholeSpace(ProtocolConfig::correct(), 3), 860925u);
    EXPECT_EQ(checkWholeSpace(everythingMutated(), 3), 1295124u);
}

// ------------------------------------------------------ random states

template <typename Vec>
void
fillChannel(SplitMix &rng, Vec &chan, auto make)
{
    // Mostly empty or singleton, like reachable states; now and then
    // up to capacity.
    static constexpr unsigned kLen[] = {0, 0, 0, 1, 1, 1, 2, 3};
    const unsigned len = kLen[rng.below(8)];
    for (unsigned k = 0; k < len; ++k)
        chan.pushBack(make());
}

/** A seeded structurally well-formed state with @p ndev devices. */
SystemState
randomState(SplitMix &rng, int ndev)
{
    SystemState s = initialAllInvalid(0, ndev);
    s.hstate = hstateFromIndex(static_cast<int>(rng.below(kNumHStates)));
    s.hreq = static_cast<std::uint8_t>(rng.below(ndev + 1));
    s.counter = static_cast<std::uint8_t>(rng.below(8));
    s.hval = static_cast<Val>(rng.below(ndev + 1));
    auto tid = [&] { return static_cast<Tid>(rng.below(8)); };
    auto val = [&] { return static_cast<Val>(rng.below(ndev + 1)); };
    for (int d = 0; d < ndev; ++d) {
        DeviceState &dev = s.dev[d];
        dev.state = dstateFromIndex(static_cast<int>(rng.below(kNumDStates)));
        dev.val = val();
        dev.pc = static_cast<std::uint8_t>(rng.below(3));
        fillChannel(rng, dev.d2hReq, [&] {
            return D2HReq{static_cast<D2HReqOp>(rng.below(5)), tid()};
        });
        fillChannel(rng, dev.d2hRsp, [&] {
            return D2HRsp{static_cast<D2HRspOp>(rng.below(4)), tid()};
        });
        fillChannel(rng, dev.d2hData, [&] {
            return DataMsg{tid(), val(),
                           static_cast<std::uint8_t>(rng.below(2))};
        });
        fillChannel(rng, dev.h2dReq, [&] {
            return H2DReq{static_cast<H2DReqOp>(rng.below(2)), tid()};
        });
        fillChannel(rng, dev.h2dRsp, [&] {
            return H2DRsp{static_cast<H2DRspOp>(rng.below(3)),
                          dstateFromIndex(
                              static_cast<int>(rng.below(kNumDStates))),
                          tid()};
        });
        fillChannel(rng, dev.h2dData, [&] {
            return DataMsg{tid(), val(),
                           static_cast<std::uint8_t>(rng.below(2))};
        });
        switch (rng.below(3)) {
          case 0:
            break;
          case 1:
            dev.buffer = DBuffer::fromReq(
                {static_cast<H2DReqOp>(rng.below(2)), tid()});
            break;
          default:
            dev.buffer = DBuffer::fromRsp(
                {static_cast<H2DRspOp>(rng.below(3)), DState::I, tid()});
            break;
        }
    }
    return s;
}

/** The correct model, each toggle flipped alone, and all mutations. */
std::vector<ProtocolConfig>
everyToggle()
{
    std::vector<ProtocolConfig> configs{ProtocolConfig::correct()};
    bool ProtocolConfig::*const toggles[] = {
        &ProtocolConfig::staleEvictDrop,
        &ProtocolConfig::cleanEvictNoData,
        &ProtocolConfig::hostCleanPull,
        &ProtocolConfig::relaxSnoopPushesGo,
        &ProtocolConfig::relaxSmadSnoopGuard,
        &ProtocolConfig::relaxGoTailgate,
        &ProtocolConfig::relaxOneSnoop,
    };
    for (bool ProtocolConfig::*t : toggles) {
        ProtocolConfig c;
        c.*t = !(c.*t);
        configs.push_back(c);
    }
    configs.push_back(everythingMutated());
    return configs;
}

/** A program scenario whose devices may issue any instruction at
 * pc 0..2, so the program-mode guards (…Load/…Evict hits) fire. */
Scenario
programScenario(int ndev)
{
    Scenario sc;
    sc.initial = initialAllInvalid(0, ndev);
    for (int d = 0; d < ndev; ++d)
        sc.program[d] = {Instr::Load, Instr::Store, Instr::Evict};
    return sc;
}

TEST(Triggers, DeclaredTriggersHoldOnRandomWellFormedStates)
{
    constexpr int kStatesPerCell = 7000;
    SplitMix rng{0x7419u};
    std::size_t states = 0, fired = 0, failed = 0;
    Scratch x;
    for (const ProtocolConfig &config : everyToggle()) {
        for (int ndev = 2; ndev <= 4; ++ndev) {
            const RuleSet rules(config, ndev);
            const InvariantSet inv = InvariantSet::full(config, ndev);
            const std::vector<const InvariantSet *> invariants{&inv};
            const Scenario scenarios[] = {Scenario::freeRunScenario(ndev),
                                          programScenario(ndev)};
            for (int k = 0; k < kStatesPerCell; ++k) {
                const SystemState s = randomState(rng, ndev);
                ASSERT_TRUE(structurallyWellFormed(s));
                ++states;
                for (const Scenario &scenario : scenarios) {
                    Context ctx{&scenario};
                    for (const Rule &r : rules.rules()) {
                        if (!r.guard(s, ctx))
                            continue;
                        ++fired;
                        ASSERT_TRUE(r.trigger.matches(s))
                            << r.name << " fires outside its trigger in\n"
                            << s.dump();
                    }
                    for (const Conjunct &c : inv.conjuncts()) {
                        if (c.holds(s, ctx))
                            continue;
                        ++failed;
                        ASSERT_TRUE(c.trigger.matches(s))
                            << c.name << " fails outside its trigger in\n"
                            << s.dump();
                    }
                    checkAgainstOracle(rules, invariants, scenario, s, x);
                    ASSERT_FALSE(::testing::Test::HasFailure());
                }
            }
        }
    }
    // The sample is only a test if it exercises the triggers.
    EXPECT_GE(states, 180000u);
    EXPECT_GT(fired, states);
    EXPECT_GT(failed, states);
}

// ------------------------------------------------------- the index

/** The index over @p items returns exactly the ids whose trigger
 * matches, in ascending order, on random @p ndev-device states. */
template <typename Item>
void
checkIndex(SplitMix &rng, int ndev, const std::vector<Item> &items)
{
    const TriggerIndex index(items);
    for (int k = 0; k < 2000; ++k) {
        const SystemState s = randomState(rng, ndev);
        std::vector<std::size_t> got, want;
        index.forEachCandidate(s, [&](std::size_t id) {
            got.push_back(id);
            return true;
        });
        for (std::size_t id = 0; id < items.size(); ++id) {
            if (items[id].trigger.matches(s))
                want.push_back(id);
        }
        ASSERT_EQ(got, want) << s.dump();
    }
}

TEST(Triggers, IndexCandidatesAreExactlyTheMatchingTriggers)
{
    SplitMix rng{0x1d3u};
    for (int ndev = 2; ndev <= 4; ++ndev) {
        const RuleSet rules(everythingMutated(), ndev);
        const InvariantSet inv =
            InvariantSet::full(ProtocolConfig::correct(), ndev);
        checkIndex(rng, ndev, rules.rules());
        checkIndex(rng, ndev, inv.conjuncts());
    }
}

TEST(Triggers, DefaultTriggerKeepsCustomRulesAndConjunctsCandidates)
{
    // An addRule hook or a hand-built conjunct without a trigger must
    // be evaluated on every state.
    RuleSet rules(ProtocolConfig::correct(), 2);
    Rule custom;
    custom.name = "AlwaysFires";
    custom.guard = [](const SystemState &, const Context &) {
        return true;
    };
    custom.apply = [](SystemState &s, const Context &) {
        s.hval = 9;
        return true;
    };
    rules.addRule(custom);
    Conjunct never;
    never.name = "never";
    never.holds = [](const SystemState &, const Context &) {
        return false;
    };
    const InvariantSet inv({never});

    const Scenario scenario = Scenario::freeRunScenario(2);
    Context ctx{&scenario};
    const std::vector<RuleSet::Successor> succ =
        rules.successors(scenario.initial, scenario);
    ASSERT_FALSE(succ.empty());
    EXPECT_EQ(succ.back().rule->name, "AlwaysFires");
    EXPECT_EQ(succ.back().state.hval, 9);
    EXPECT_EQ(inv.firstFailure(scenario.initial, ctx), &inv.conjuncts()[0]);
    EXPECT_TRUE(InvariantSet().holds(scenario.initial, ctx));
}

} // namespace
} // namespace cxl
