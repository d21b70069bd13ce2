/**
 * @file
 * Backend conformance suite for the layered visited-state store: the
 * two store kinds (ram = full on the heap, mmap-compact = compact on
 * file-backed mappings) must present identical packed-id semantics
 * through the StateStore façade — insert/lookup/dedup, batched
 * duplicates, reads and dedup across seals, the StoreFullError
 * capacity path (store-level and through the explorer), forged
 * probe-hash collision detection — the other two (mode, backend)
 * pairings must be rejected, and the explorer must produce
 * bit-identical state/transition counts on both kinds at 2-device and
 * symmetry-reduced 3-device spaces.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>
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

TEST(StoreBackend, UnsupportedPairingsAreRejected)
{
    // Full mode runs only on the heap and compact mode only on the
    // file-backed backend.
    const Kind unsupported[] = {
        {"ram-compact", StoreMode::Compact, StoreBackend::InRam},
        {"mmap", StoreMode::Full, StoreBackend::Mmap},
    };
    for (const Kind &k : unsupported)
        EXPECT_THROW(StateStore{configOf(k)}, std::invalid_argument)
            << k.name;
    for (const Kind &k : kKinds)
        EXPECT_NO_THROW(StateStore{configOf(k)}) << k.name;
#if defined(__linux__)
    // The convenience constructor picks the mode's backend.
    EXPECT_EQ(StateStore(1 << 10, StoreMode::Full).mappedBytes(), 0u);
    EXPECT_GT(StateStore(1 << 10, StoreMode::Compact).mappedBytes(),
              0u);
#endif
}

TEST(StoreBackend, SealedEntriesStayReadableOnEveryKind)
{
    // Enough shard-0 entries that whole arena blocks fall below two
    // seal boundaries: full blocks hold 2^13 entries (never
    // released), compact blocks 2^18 bytes of cells.
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

        // Sealed entries stay decodable — the mmap backend remaps
        // the dropped block on demand.
        SystemState decoded;
        store.stateInto(ids.front(), decoded);
        EXPECT_TRUE(decoded == probeState(0)) << k.name;
        store.stateInto(ids.back(), decoded);
        EXPECT_TRUE(decoded == probeState(n - 1)) << k.name;

        // Deduplication survives sealing on every kind.
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
        // Two seals drop every byte block below the first boundary:
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
        StateStore store(configOf(kKinds[1], 0, dir)); // mmap-compact
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
            EXPECT_NE(what.find("--store=ram|mmap-compact"),
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
        // The collision survives a seal: the verification
        // fingerprint (compact) or the bytes (full) still tell the two
        // states apart.
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

/** Busy @p ndev-device state: every active device has traffic, and
 * the inactive slots hold junk the store must not keep. */
SystemState
busyState(int ndev, int i)
{
    SystemState s = initialBothShared(static_cast<Val>(i & 3), ndev);
    s.counter = static_cast<std::uint8_t>(i);
    for (int d = 0; d < ndev; ++d) {
        s.dev[d].pc = static_cast<std::uint8_t>(i + d);
        s.dev[d].d2hReq.pushBack(
            {D2HReqOp::RdOwn, static_cast<Tid>((i + d) & 3)});
        s.dev[d].h2dData.pushBack({1, static_cast<Val>(d + 1), 1});
    }
    for (int d = ndev; d < kMaxDevices; ++d) {
        s.dev[d].val = 7;
        s.dev[d].pc = 9;
    }
    return s;
}

TEST(StoreBackend, StateIntoRoundTripsEveryDeviceCountOnEveryKind)
{
    const DeviceState inactive{};
    for (int ndev = 1; ndev <= kMaxDevices; ++ndev) {
        for (const Kind &k : kKinds) {
            const std::string what =
                std::string(k.name) + " ndev=" + std::to_string(ndev);
            StateStore store(configOf(k));
            std::vector<std::uint32_t> ids;
            for (int i = 0; i < 64; ++i) {
                auto [id, fresh] = store.insert(
                    busyState(ndev, i), StateStore::kNoParent, 0, 0);
                ASSERT_TRUE(fresh) << what << " i=" << i;
                ids.push_back(id);
            }
            for (int i = 0; i < 64; ++i) {
                const SystemState want = busyState(ndev, i);
                SystemState got = busyState(kMaxDevices, 99);
                store.stateInto(ids[static_cast<std::size_t>(i)], got);
                EXPECT_TRUE(got == want) << what << " i=" << i;
                EXPECT_EQ(0, std::memcmp(&got, &want,
                                         want.activeBytes()))
                    << what << " i=" << i;
                for (int d = ndev; d < kMaxDevices; ++d) {
                    EXPECT_TRUE(got.dev[d] == inactive)
                        << what << " i=" << i << " slot " << d;
                }
            }
        }
    }
}

TEST(StoreBackend, FullKindsRejectAMismatchedDeviceCount)
{
    // Full-mode slots are active-prefix sized, so the first insert
    // fixes the store's device count; compact cells are
    // self-delimiting and accept any.
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        store.insert(busyState(2, 0), StateStore::kNoParent, 0, 0);
        if (k.mode == StoreMode::Compact) {
            EXPECT_NO_THROW(store.insert(busyState(3, 0),
                                         StateStore::kNoParent, 0, 0))
                << k.name;
            continue;
        }
        EXPECT_THROW(
            store.insert(busyState(3, 0), StateStore::kNoParent, 0, 0),
            std::invalid_argument)
            << k.name;
        // A batch holding one bad item inserts nothing.
        std::vector<StateStore::BatchItem> items(3);
        for (int i = 0; i < 3; ++i) {
            items[i].state = busyState(i == 2 ? 4 : 2, i + 1);
            items[i].hash = items[i].state.hash();
        }
        EXPECT_THROW(store.insertBatch(items.data(), items.size()),
                     std::invalid_argument)
            << k.name;
        EXPECT_EQ(store.size(), 1u) << k.name;
        // The store stays usable at its own device count.
        EXPECT_TRUE(store
                        .insert(busyState(2, 1), StateStore::kNoParent,
                                0, 0)
                        .second)
            << k.name;
    }
}

TEST(StoreBackend, BatchAcrossBucketGrowthMatchesSequentialInserts)
{
    // One shard-0 batch of 3,000 items (1,000 distinct states, each
    // three times): the shard's 64 buckets double six times and its
    // columns grow past 1,024 entries in mid-batch.  Ids, inserted
    // flags, bytes and breadcrumbs must equal a sequence of single
    // inserts.
    const int distinct = 1000;
    for (const Kind &k : kKinds) {
        StateStore batched(configOf(k));
        StateStore sequential(configOf(k));
        std::vector<StateStore::BatchItem> items(3 * distinct);
        for (int i = 0; i < 3 * distinct; ++i) {
            const int s = (i * 7) % distinct; // duplicates interleave
            StateStore::BatchItem &item =
                items[static_cast<std::size_t>(i)];
            item.state = probeState(s);
            item.hash = shardZeroHash(s);
            item.parent = StateStore::kNoParent;
            item.depth = static_cast<std::uint32_t>(i);
            item.rule = static_cast<std::uint16_t>(i & 0x3f);
        }
        batched.insertBatch(items.data(), items.size());
        for (const StateStore::BatchItem &item : items) {
            auto [id, fresh] =
                sequential.insert(item.state, item.hash, item.parent,
                                  item.rule, item.depth);
            EXPECT_EQ(item.id, id) << k.name;
            EXPECT_EQ(item.inserted, fresh) << k.name;
        }
        EXPECT_EQ(batched.size(), static_cast<std::size_t>(distinct))
            << k.name;
        for (const StateStore::BatchItem &item : items) {
            SystemState got;
            batched.stateInto(item.id, got);
            EXPECT_TRUE(got == item.state) << k.name;
            EXPECT_EQ(batched.depthAt(item.id),
                      sequential.depthAt(item.id))
                << k.name;
            EXPECT_EQ(batched.ruleAt(item.id),
                      sequential.ruleAt(item.id))
                << k.name;
        }
    }
}

// ------------------------------------------- engine-level agreement

ExploreResult
runKind(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, const Kind &k,
        std::size_t threads)
{
    opt.compaction = k.mode == StoreMode::Compact;
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
