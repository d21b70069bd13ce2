/**
 * @file
 * Hash-compaction (fingerprint-only) storage tests: compact and full
 * modes must agree on state/transition counts and verdicts for 2- and
 * 3-device explorations across 1/4/8 worker threads, a synthetic
 * probe-hash collision must be detected and kept as two states (and
 * reported via probeCollisions) rather than silently merged, a
 * violation found under compaction must carry the same verdict and
 * the same complete, replayable trace as full mode, and sealed cells
 * must be unmapped yet still decode and deduplicate.
 */

#include <gtest/gtest.h>

#include "checker/explorer.hh"
#include "checker/state_store.hh"

namespace cxl
{
namespace
{

const std::size_t kSweep[] = {1, 4, 8};

ExploreResult
runMode(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, bool compact,
        std::size_t threads)
{
    opt.compaction = compact;
    opt.numThreads = threads;
    Explorer ex(rules, sc, inv);
    return ex.run(opt);
}

/** Compact results must match the full-mode baseline bit for bit. */
void
expectAgreement(const ExploreResult &full, const ExploreResult &comp,
                const std::string &what)
{
    EXPECT_EQ(full.numStates, comp.numStates) << what;
    EXPECT_EQ(full.numTransitions, comp.numTransitions) << what;
    EXPECT_EQ(full.maxDepth, comp.maxDepth) << what;
    EXPECT_EQ(full.completed, comp.completed) << what;
    EXPECT_EQ(full.violationCount, comp.violationCount) << what;
    EXPECT_EQ(full.ruleFireCounts, comp.ruleFireCounts) << what;
    ASSERT_EQ(full.violation.has_value(), comp.violation.has_value())
        << what;
    if (full.violation) {
        EXPECT_EQ(full.violation->kind, comp.violation->kind) << what;
        EXPECT_EQ(full.violation->depth, comp.violation->depth)
            << what;
        EXPECT_EQ(full.violation->conjunctName,
                  comp.violation->conjunctName)
            << what;
    }
    // 64-bit fingerprints over these space sizes: a collision that
    // perturbed the counts would be a ~n^2/2^65 event, and even
    // detected near-misses are overwhelmingly unlikely.
    EXPECT_EQ(comp.probeCollisions, 0u) << what;
}

TEST(Compaction, TwoDeviceFreeRunAgreesAcrossThreadCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base = runMode(rules, sc, inv, {}, false, 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    for (std::size_t n : kSweep) {
        expectAgreement(base, runMode(rules, sc, inv, {}, true, n),
                        "2dev compact @" + std::to_string(n));
    }
}

TEST(Compaction, ThreeDeviceSymmetryReducedAgreesAcrossThreadCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config, 3);
    Scenario sc = Scenario::freeRunScenario(3);
    InvariantSet inv = InvariantSet::full(config, 3);

    ExploreOptions opt;
    opt.symmetryReduction = true;

    ExploreResult base = runMode(rules, sc, inv, opt, false, 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    EXPECT_GT(base.numStates, 100000u); // the 144,294-orbit space
    for (std::size_t n : kSweep) {
        expectAgreement(base, runMode(rules, sc, inv, opt, true, n),
                        "3dev sym compact @" + std::to_string(n));
    }
}

TEST(Compaction, ExpectedStatesHintChangesNoCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base = runMode(rules, sc, inv, {}, false, 1);
    for (bool compact : {false, true}) {
        ExploreOptions opt;
        opt.expectedStates = 1 << 20; // far beyond the real space
        expectAgreement(base,
                        runMode(rules, sc, inv, opt, compact, 4),
                        compact ? "hint compact" : "hint full");
    }
}

/** Every step of @p trace is one firing of its named rule from the
 * previous step's state (tid-canonicalised, as the explorer stores
 * states without symmetry reduction). */
void
expectReplayable(const RuleSet &rules, const Scenario &sc,
                 const std::vector<TraceStep> &trace,
                 const std::string &what)
{
    ASSERT_FALSE(trace.empty()) << what;
    SystemState init = sc.initial;
    init.canonicaliseTids();
    EXPECT_TRUE(trace.front().state == init) << what;
    std::vector<RuleSet::Successor> succs;
    for (std::size_t k = 1; k < trace.size(); ++k) {
        rules.successorsInto(trace[k - 1].state, sc, true, succs);
        bool fired = false;
        for (const RuleSet::Successor &succ : succs) {
            fired |= succ.rule->name == trace[k].ruleName &&
                     succ.state == trace[k].state;
        }
        EXPECT_TRUE(fired) << what << ": step " << k << " ("
                           << trace[k].ruleName << ") does not replay";
    }
}

TEST(Compaction, ViolationTraceIsCompleteAndReplayable)
{
    // The Table 3 mutation under compaction: same conjunct, family
    // and minimal depth as the full-mode verdict, and the same full
    // breadcrumb path — sealed cells are remapped from the backing
    // file to rebuild it.
    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet rules(mutated);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet swmr = InvariantSet::swmrOnly();

    ExploreResult full = runMode(rules, sc, swmr, {}, false, 1);
    ASSERT_TRUE(full.violation.has_value());
    const std::vector<TraceStep> &want = full.violation->trace;
    ASSERT_EQ(want.size(), full.violation->depth + 1u);
    expectReplayable(rules, sc, want, "full");

    for (std::size_t n : kSweep) {
        const std::string what = "compact @" + std::to_string(n);
        ExploreResult comp = runMode(rules, sc, swmr, {}, true, n);
        ASSERT_TRUE(comp.violation.has_value()) << what;
        EXPECT_EQ(comp.violation->kind, full.violation->kind);
        EXPECT_EQ(comp.violation->depth, full.violation->depth);
        EXPECT_EQ(comp.violation->conjunctName,
                  full.violation->conjunctName);
        EXPECT_EQ(comp.violation->conjunctFamily,
                  full.violation->conjunctFamily);
        const std::vector<TraceStep> &got = comp.violation->trace;
        ASSERT_EQ(got.size(), want.size()) << what;
        EXPECT_TRUE(got.back().state == want.back().state) << what;
        EXPECT_FALSE(swmrHolds(got.back().state)) << what;
        expectReplayable(rules, sc, got, what);
    }
}

TEST(Compaction, SyntheticProbeHashCollisionIsDetected)
{
    // Two distinct states forged onto the same 64-bit probe hash:
    // probe-hash-only compaction would merge them silently.  The
    // verification fingerprint must keep them apart and count the
    // near-miss, in both storage modes.
    SystemState a = initialAllInvalid();
    SystemState b = initialBothShared(1);
    ASSERT_FALSE(a == b);
    ASSERT_NE(a.fingerprint(), b.fingerprint());
    const std::uint64_t forged = 0x1234567890abcdefull;

    for (StoreMode mode : {StoreMode::Compact, StoreMode::Full}) {
        StateStore store(1 << 10, mode);
        auto [ia, new_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        auto [ib, new_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_TRUE(new_a);
        EXPECT_TRUE(new_b) << "collision silently merged states";
        EXPECT_NE(ia, ib);
        EXPECT_EQ(store.size(), 2u);
        EXPECT_GE(store.probeCollisions(), 1u)
            << "collision not reported";

        // Re-probing either state finds its own entry, not the
        // other's.
        auto [ia2, dup_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        auto [ib2, dup_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_FALSE(dup_a);
        EXPECT_FALSE(dup_b);
        EXPECT_EQ(ia2, ia);
        EXPECT_EQ(ib2, ib);
        EXPECT_EQ(store.size(), 2u);
    }
}

/** A distinct, moderately busy state for arena tests. */
SystemState
arenaState(int i)
{
    SystemState s;
    s.counter = static_cast<std::uint8_t>(i & 0xff);
    s.dev[0].val = static_cast<Val>((i >> 8) & 0xff);
    s.dev[1].val = static_cast<Val>(i >> 16);
    s.dev[0].d2hReq.pushBack(
        {D2HReqOp::RdShared, static_cast<Tid>(i & 3)});
    s.dev[1].h2dData.pushBack({0, static_cast<Val>(i & 0x7f), 0});
    return s;
}

TEST(Compaction, CompactCellsRoundTripBitExactly)
{
    // The zero-RLE cells must reproduce the active prefix exactly —
    // stateInto(insert(s)) == s for sparse, busy and near-full
    // states.
    StateStore store(1 << 10, StoreMode::Compact);
    std::vector<SystemState> originals;
    originals.push_back(initialAllInvalid(0, 4));
    originals.push_back(initialBothShared(3, 4));
    for (int i = 0; i < 500; ++i)
        originals.push_back(arenaState(i));
    {
        // Near-incompressible: every channel of every device full.
        SystemState s = initialBothShared(1, 4);
        for (int d = 0; d < 4; ++d) {
            for (int k = 0; k < 3; ++k) {
                s.dev[d].d2hReq.pushBack({D2HReqOp::RdOwn, 1});
                s.dev[d].d2hRsp.pushBack({D2HRspOp::RspIHitSE, 2});
                s.dev[d].d2hData.pushBack({1, 2, 1});
                s.dev[d].h2dReq.pushBack({H2DReqOp::SnpInv, 3});
                s.dev[d].h2dRsp.pushBack(
                    {H2DRspOp::GO, DState::M, 1});
                s.dev[d].h2dData.pushBack({2, 3, 0});
            }
        }
        s.counter = 4;
        originals.push_back(s);
    }
    for (const SystemState &s : originals) {
        auto [idx, is_new] =
            store.insert(s, StateStore::kNoParent, 0, 0);
        ASSERT_TRUE(is_new);
        SystemState decoded;
        store.stateInto(idx, decoded);
        EXPECT_TRUE(decoded == s);
    }
}

TEST(Compaction, SealedLevelsAreUnmappedYetDecodeAndDedup)
{
    // sealLevel unmaps the byte blocks of levels at least two
    // boundaries old — the mapped window shrinks — while every cell
    // stays decodable (remapped from the backing file) and
    // deduplication keeps working.  Insert enough encoded cells on one
    // shard that whole byte-arena blocks become releasable.
    StateStore store(1 << 10, StoreMode::Compact);
    const int n = 200000; // cells total several byte blocks
    std::vector<std::uint32_t> ids;
    auto forged = [](int i) {
        return mix64(static_cast<std::uint64_t>(i)) >> 4; // shard 0
    };
    for (int i = 0; i < n; ++i) {
        ids.push_back(store
                          .insert(arenaState(i), forged(i),
                                  StateStore::kNoParent, 0, 0)
                          .first);
    }
    store.sealLevel(); // boundary after "level A"
    const std::uint64_t mapped = store.mappedBytes();
    store.sealLevel(); // level A is now two boundaries old
    EXPECT_LT(store.mappedBytes(), mapped);

    // Deduplication works against the unmapped cells...
    auto [idx, is_new] = store.insert(arenaState(0), forged(0),
                                      StateStore::kNoParent, 0, 0);
    EXPECT_FALSE(is_new);
    EXPECT_EQ(idx, ids.front());
    // ...and every cell still decodes, the oldest remapped on demand.
    for (int i = 0; i < n; i += 997) {
        SystemState decoded;
        store.stateInto(ids[static_cast<std::size_t>(i)], decoded);
        EXPECT_TRUE(decoded == arenaState(i)) << i;
    }
    SystemState last;
    store.stateInto(ids.back(), last);
    EXPECT_TRUE(last == arenaState(n - 1));
}

} // namespace
} // namespace cxl
