/**
 * @file
 * Backend conformance suite for the layered visited-state store: the
 * four StoreKinds (ram, ram-compact, mmap, mmap-compact) must present
 * identical packed-id semantics through the StateStore façade —
 * insert/lookup/dedup, batched duplicates, seal/retention per kind's
 * contract, the StoreFullError capacity path (store-level and through
 * the explorer), forged probe-hash collision detection — and the
 * explorer must produce bit-identical state/transition counts on
 * every kind at 2-device and symmetry-reduced 3-device spaces.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "checker/explorer.hh"
#include "checker/state_store.hh"
#include "support/hash.hh"

#if defined(__unix__)
#include <unistd.h>
#endif

namespace cxl
{
namespace
{

struct Kind {
    const char *name;
    StoreMode mode;
    StoreBackend backend;
};

const Kind kKinds[] = {
    {"ram", StoreMode::Full, StoreBackend::InRam},
    {"ram-compact", StoreMode::Compact, StoreBackend::InRam},
    {"mmap", StoreMode::Full, StoreBackend::Mmap},
    {"mmap-compact", StoreMode::Compact, StoreBackend::Mmap},
};

StoreConfig
configOf(const Kind &k, std::uint64_t capacity = 0,
         std::string dir = std::string())
{
    return StoreConfig{1 << 10, k.mode, k.backend, std::move(dir),
                       capacity};
}

/** A distinct, moderately busy state per index. */
SystemState
probeState(int i)
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

/** Forged probe hash that routes every index to shard 0, so one
 * shard accumulates enough entries to fill and drop arena blocks. */
std::uint64_t
shardZeroHash(int i)
{
    return mix64(static_cast<std::uint64_t>(i)) >> 4;
}

TEST(StoreBackend, InsertLookupDedupAndBreadcrumbs)
{
    const int n = 2000;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::vector<std::uint32_t> ids;
        for (int i = 0; i < n; ++i) {
            auto [id, fresh] = store.insert(
                probeState(i), StateStore::kNoParent,
                static_cast<std::uint16_t>(i & 0x3f),
                static_cast<std::uint32_t>(i & 7));
            ASSERT_TRUE(fresh) << k.name << " i=" << i;
            ids.push_back(id);
        }
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
        // Re-inserting every state dedups onto the original id.
        for (int i = 0; i < n; ++i) {
            auto [id, fresh] = store.insert(
                probeState(i), StateStore::kNoParent, 0,
                static_cast<std::uint32_t>(i & 7));
            EXPECT_FALSE(fresh) << k.name << " i=" << i;
            EXPECT_EQ(id, ids[static_cast<std::size_t>(i)])
                << k.name << " i=" << i;
        }
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
        // Bytes round-trip and the breadcrumbs stuck.
        for (int i = 0; i < n; i += 97) {
            const std::uint32_t id =
                ids[static_cast<std::size_t>(i)];
            SystemState decoded;
            store.stateInto(id, decoded);
            EXPECT_TRUE(decoded == probeState(i))
                << k.name << " i=" << i;
            EXPECT_EQ(store.ruleAt(id),
                      static_cast<std::uint16_t>(i & 0x3f))
                << k.name;
            EXPECT_EQ(store.depthAt(id),
                      static_cast<std::uint32_t>(i & 7))
                << k.name;
            EXPECT_EQ(store.parentAt(id), StateStore::kNoParent)
                << k.name;
        }
    }
}

TEST(StoreBackend, BatchDuplicateKeepsBreadcrumbsOnEveryKind)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        auto [root, fresh_root] =
            store.insert(probeState(0), StateStore::kNoParent, 0, 0);
        ASSERT_TRUE(fresh_root) << k.name;
        auto [id, fresh] = store.insert(probeState(1), root, 7, 9);
        ASSERT_TRUE(fresh) << k.name;
        EXPECT_EQ(store.depthAt(id), 9u) << k.name;

        // A batched duplicate resolves to the existing entry.
        StateStore::BatchItem item;
        item.state = probeState(1);
        item.hash = item.state.hash();
        item.parent = root;
        item.rule = 3;
        item.depth = 2;
        store.insertBatch(&item, 1);
        EXPECT_FALSE(item.inserted) << k.name;
        EXPECT_EQ(item.id, id) << k.name;
        EXPECT_EQ(store.size(), 2u) << k.name;

        // A duplicate at a larger depth changes nothing.
        item.depth = 12;
        item.rule = 11;
        store.insertBatch(&item, 1);
        EXPECT_FALSE(item.inserted) << k.name;
        EXPECT_EQ(store.depthAt(id), 9u) << k.name;
        EXPECT_EQ(store.ruleAt(id), 7u) << k.name;
    }
}

TEST(StoreBackend, SealRetentionFollowsEachKindsContract)
{
    // Enough shard-0 entries that whole arena blocks fall below two
    // seal boundaries: full blocks hold 2^12..2^13 entries, compact
    // blocks 2^18 bytes of cells.
    const int n = 40000;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::vector<std::uint32_t> ids;
        for (int i = 0; i < n; ++i) {
            ids.push_back(store
                              .insert(probeState(i), shardZeroHash(i),
                                      StateStore::kNoParent, 0, 0)
                              .first);
        }
        store.sealLevel();
        store.sealLevel();

        const bool readable = store.statesAlwaysReadable();
        EXPECT_EQ(readable,
                  k.mode == StoreMode::Full ||
                      k.backend == StoreBackend::Mmap)
            << k.name;
        EXPECT_EQ(store.stateRetained(ids.front()), readable)
            << k.name;
        EXPECT_TRUE(store.stateRetained(ids.back())) << k.name;
        if (readable) {
            // Sealed entries stay decodable — recoverable backends
            // remap the dropped block on demand.
            SystemState decoded;
            store.stateInto(ids.front(), decoded);
            EXPECT_TRUE(decoded == probeState(0)) << k.name;
        }

        // Deduplication survives sealing on every kind (fingerprint
        // identity where the bytes are cold).
        auto [id, fresh] = store.insert(
            probeState(0), shardZeroHash(0), StateStore::kNoParent,
            0, 0);
        EXPECT_FALSE(fresh) << k.name;
        EXPECT_EQ(id, ids.front()) << k.name;
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
    }
}

#if defined(__linux__)
TEST(StoreBackend, MmapKindsReportAndReleaseMappedBytes)
{
    const int n = 40000;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        for (int i = 0; i < n; ++i) {
            store.insert(probeState(i), shardZeroHash(i),
                         StateStore::kNoParent, 0, 0);
        }
        if (k.backend == StoreBackend::InRam) {
            EXPECT_EQ(store.mappedBytes(), 0u) << k.name;
            EXPECT_EQ(store.backingFileBytes(), 0u) << k.name;
            continue;
        }
        const std::uint64_t mapped = store.mappedBytes();
        EXPECT_GT(mapped, 0u) << k.name;
        EXPECT_GT(store.backingFileBytes(), 0u) << k.name;
        // Two seals drop every full block below the first boundary:
        // the mapped window shrinks, the backing file does not.
        const std::uint64_t file_before = store.backingFileBytes();
        store.sealLevel();
        store.sealLevel();
        EXPECT_LT(store.mappedBytes(), mapped) << k.name;
        EXPECT_GE(store.backingFileBytes(), file_before) << k.name;
    }
}

TEST(StoreBackend, StoreDirBacksShardFiles)
{
    char tmpl[] = "/tmp/cxl-store-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    {
        StateStore store(configOf(kKinds[2], 0, dir)); // mmap full
        for (int i = 0; i < 5000; ++i) {
            store.insert(probeState(i), StateStore::kNoParent, 0, 0);
        }
        EXPECT_GT(store.mappedBytes(), 0u);
        EXPECT_GT(store.backingFileBytes(), 0u);
        SystemState decoded;
        auto [id, fresh] =
            store.insert(probeState(1), StateStore::kNoParent, 0, 0);
        EXPECT_FALSE(fresh);
        store.stateInto(id, decoded);
        EXPECT_TRUE(decoded == probeState(1));
    }
    // Backing files are unlinked (O_TMPFILE/unlinked tempfile), so
    // the directory is removable once the store is gone.
    EXPECT_EQ(rmdir(dir), 0);
}
#endif // __linux__

TEST(StoreBackend, CapacityThrowsStoreFullErrorOnEveryKind)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k, /*capacity=*/16)); // 1 per shard
        bool threw = false;
        try {
            for (int i = 0; i < 64; ++i) {
                store.insert(probeState(i), StateStore::kNoParent, 0,
                             0);
            }
        } catch (const StoreFullError &e) {
            threw = true;
            const std::string what = e.what();
            EXPECT_NE(what.find("per-shard limit 1 entries"),
                      std::string::npos)
                << k.name << ": " << what;
            EXPECT_NE(what.find("--store=ram|ram-compact|mmap|"
                                "mmap-compact"),
                      std::string::npos)
                << k.name << ": " << what;
        }
        EXPECT_TRUE(threw) << k.name;
    }
}

TEST(StoreBackend, ForgedProbeHashCollisionDetectedOnEveryKind)
{
    SystemState a = initialAllInvalid();
    SystemState b = initialBothShared(1);
    ASSERT_FALSE(a == b);
    const std::uint64_t forged = 0x1234567890abcdefull;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        auto [ia, new_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        auto [ib, new_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_TRUE(new_a) << k.name;
        EXPECT_TRUE(new_b) << k.name << ": silently merged";
        EXPECT_NE(ia, ib) << k.name;
        EXPECT_GE(store.probeCollisions(), 1u) << k.name;
        // The collision survives a seal: cold-entry identity falls
        // back to the verification fingerprint, which still tells
        // the two states apart.
        store.sealLevel();
        store.sealLevel();
        auto [ia2, dup_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        auto [ib2, dup_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_FALSE(dup_a) << k.name;
        EXPECT_FALSE(dup_b) << k.name;
        EXPECT_EQ(ia2, ia) << k.name;
        EXPECT_EQ(ib2, ib) << k.name;
    }
}

// ------------------------------------------- engine-level agreement

ExploreResult
runKind(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, const Kind &k,
        std::size_t threads)
{
    opt.compaction = k.mode == StoreMode::Compact;
    opt.storeBackend = k.backend;
    opt.numThreads = threads;
    Explorer ex(rules, sc, inv);
    return ex.run(opt);
}

void
expectAgreement(const ExploreResult &base, const ExploreResult &run,
                const std::string &what)
{
    EXPECT_EQ(base.numStates, run.numStates) << what;
    EXPECT_EQ(base.numTransitions, run.numTransitions) << what;
    EXPECT_EQ(base.maxDepth, run.maxDepth) << what;
    EXPECT_EQ(base.completed, run.completed) << what;
    EXPECT_EQ(base.ruleFireCounts, run.ruleFireCounts) << what;
    EXPECT_EQ(run.probeCollisions, 0u) << what;
}

TEST(StoreBackend, TwoDeviceCountsBitIdenticalAcrossKinds)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base =
        runKind(rules, sc, inv, {}, kKinds[0], 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    for (const Kind &k : kKinds) {
        for (std::size_t threads : {1u, 4u}) {
            expectAgreement(base,
                            runKind(rules, sc, inv, {}, k, threads),
                            std::string("2dev ") + k.name + " @" +
                                std::to_string(threads));
        }
    }
}

TEST(StoreBackend, ThreeDeviceSymCountsBitIdenticalAcrossKinds)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config, 3);
    Scenario sc = Scenario::freeRunScenario(3);
    InvariantSet inv = InvariantSet::full(config, 3);
    ExploreOptions opt;
    opt.symmetryReduction = true;

    ExploreResult base = runKind(rules, sc, inv, opt, kKinds[0], 1);
    ASSERT_TRUE(base.completed);
    EXPECT_GT(base.numStates, 100000u); // the 144,294-orbit space
    for (const Kind &k : kKinds) {
        ExploreResult run = runKind(rules, sc, inv, opt, k, 4);
        expectAgreement(base, run,
                        std::string("3dev sym ") + k.name);
#if defined(__linux__)
        if (k.backend == StoreBackend::Mmap) {
            EXPECT_GT(run.storeFileBytes, 0u) << k.name;
            EXPECT_GT(run.storeMappedBytes, 0u) << k.name;
        }
#endif
    }
}

TEST(StoreBackend, ShardFullStopsTheExplorerOnEveryKind)
{
    // A 64-entry store cannot hold the 2-device free-run space; the
    // StoreFullError must become a graceful governed stop on every
    // kind, never an escaping exception.
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    for (const Kind &k : kKinds) {
        ExploreOptions opt;
        opt.storeCapacity = 64;
        ExploreResult res;
        ASSERT_NO_THROW(res = runKind(rules, sc, inv, opt, k, 4))
            << k.name;
        EXPECT_EQ(res.stopReason, StopReason::ShardFull) << k.name;
        EXPECT_FALSE(res.completed) << k.name;
        EXPECT_FALSE(res.violation.has_value()) << k.name;
    }
}

} // namespace
} // namespace cxl
