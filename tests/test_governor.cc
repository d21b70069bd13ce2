/**
 * @file
 * Tests for the run governor: wall-clock deadlines, memory ceilings,
 * cooperative cancellation (including the SIGINT bridge), graceful
 * shard-full stops, and the quarantine of budget-stopped oracle
 * arms — every stop cause must land as a well-formed Incomplete
 * verdict with an exact explored prefix, never as an exception.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/check.hh"
#include "checker/state_store.hh"
#include "fuzz/corpus.hh"
#include "fuzz/oracle.hh"
#include "support/governor.hh"
#include "support/json_parse.hh"
#include "support/resource.hh"

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

// Sanitizer runtimes reserve terabytes of shadow address space, which
// no RLIMIT_AS cap can accommodate.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CXL_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CXL_TEST_SANITIZED 1
#endif
#endif

namespace cxl
{
namespace
{

/** Uncapped 2-device free-run size (see test_api.cc). */
constexpr std::uint64_t kTwoDevFreeRunStates = 5218;

CheckRequest
freeRunRequest(int devices, const EngineOptions &engine)
{
    CheckRequest req;
    req.scenario = "free-run";
    req.devices = devices;
    EngineOptions opt = engine;
    if (devices > 2)
        opt.symmetry = SymmetryMode::Off; // keep the space big
    req.engine = opt;
    return req;
}

/**
 * The invariants every governed stop must satisfy, whatever the
 * cause: Incomplete verdict, the expected stop reason, a non-empty
 * explored prefix, a consistent deepest-complete level, and JSON
 * that parses with the matching "stop_reason" word.
 */
void
expectGovernedStop(const CheckResult &res, StopReason reason,
                   const char *jsonWord)
{
    EXPECT_EQ(res.verdict, CheckResult::Verdict::Incomplete);
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.stopReason, reason);
    EXPECT_GE(res.states, 1u); // the initial state at least
    EXPECT_LE(res.deepestCompleteLevel, res.diameter);
    EXPECT_NE(res.renderText().find(stopReasonPhrase(reason)),
              std::string::npos);

    const JsonValue doc = parseJson(res.renderJson());
    ASSERT_EQ(doc.kind(), JsonValue::Kind::Object);
    EXPECT_EQ(doc.getStr("verdict"), "incomplete");
    EXPECT_FALSE(doc.getBool("completed"));
    EXPECT_EQ(doc.getStr("stop_reason"), jsonWord);
    ASSERT_NE(doc.get("deepest_complete_level"), nullptr);
    EXPECT_LE(doc.getNum("deepest_complete_level"),
              doc.getNum("diameter"));
}

// ------------------------------------------------------- deadlines

TEST(Governor, DeadlineStopsEveryThreadCount)
{
    // A microscopic budget trips at the very first poll, so the run
    // reports the smallest possible prefix — at any thread count,
    // without an exception in sight.
    CheckSession session;
    for (std::size_t threads : {1u, 4u, 8u}) {
        EngineOptions engine;
        engine.threads = threads;
        engine.maxSeconds = 1e-6;
        CheckResult res;
        ASSERT_NO_THROW(res = session.run(freeRunRequest(2, engine)))
            << "threads " << threads;
        expectGovernedStop(res, StopReason::Deadline, "deadline");
        EXPECT_LE(res.states, kTwoDevFreeRunStates);
    }
}

TEST(Governor, DeadlineTruncatesABigSpaceMidFlight)
{
    // 3-device unreduced free-run is ~861k states — far more than
    // 20 ms of exploration.  The run must stop with a strict prefix
    // at every thread count.
    CheckSession session;
    for (std::size_t threads : {1u, 4u, 8u}) {
        EngineOptions engine;
        engine.threads = threads;
        engine.maxSeconds = 0.02;
        const CheckResult res = session.run(freeRunRequest(3, engine));
        expectGovernedStop(res, StopReason::Deadline, "deadline");
        EXPECT_LT(res.states, 860925u);
    }
}

// -------------------------------------------------- memory ceiling

TEST(Governor, MemoryCeilingStopsTheRun)
{
    // A 1-byte ceiling is below any process's resident set, so the
    // governor's very first RSS sample trips it.
    CheckSession session;
    EngineOptions engine;
    engine.threads = 4;
    engine.maxRssBytes = 1;
    const CheckResult res = session.run(freeRunRequest(2, engine));
    expectGovernedStop(res, StopReason::Memory, "memory");
}

#if defined(__linux__)
TEST(Governor, MemoryCeilingMetersAnonymousRssNotMappedFiles)
{
    // The ceiling meters anonymous RSS only, so an mmap-compact run
    // whose file-backed mappings dwarf the ceiling's headroom still
    // completes: the kernel can reclaim those pages by writeback,
    // and tripping on them would defeat the out-of-core mode's whole
    // point.  The ceiling is set to the current anonymous footprint
    // plus generous slack for the run's heap — far less than
    // anon+mapped would need if mapped bytes were (wrongly) counted.
    CheckSession session;
    EngineOptions engine;
    engine.threads = 4;
    engine.store = StoreKind::MmapCompact;
    engine.maxRssBytes =
        currentAnonRssBytes() + 256ull * 1024 * 1024;
    const CheckResult res = session.run(freeRunRequest(2, engine));
    EXPECT_EQ(res.verdict, CheckResult::Verdict::Holds);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.states, kTwoDevFreeRunStates);
    // The run reports its file-backed footprint separately.
    EXPECT_GT(res.mappedFileBytes, 0u);
    EXPECT_GT(res.storeFileBytes, 0u);
    const JsonValue doc = parseJson(res.renderJson());
    EXPECT_GT(doc.getNum("mapped_file_bytes"), 0.0);
    EXPECT_GT(doc.getNum("store_file_bytes"), 0.0);
    // Deterministic rendering zeroes both, like the other
    // wall-clock/allocator keys.
    const JsonValue det = parseJson(res.renderJson(true));
    EXPECT_EQ(det.getNum("mapped_file_bytes"), 0.0);
    EXPECT_EQ(det.getNum("store_file_bytes"), 0.0);
}

/**
 * Death-test body: cap this process's address space a little above
 * its current size, run the 860,925-state unreduced 3-device free run
 * single-threaded on @p kind, and exit 0 iff it ended as a governed
 * memory stop.  Neither store fits under the cap.
 */
[[noreturn]] void
exploreUnderAddressSpaceCap(StoreKind kind)
{
    CheckSession session;
    EngineOptions engine;
    engine.threads = 1;
    engine.store = kind;
    const CheckRequest req = freeRunRequest(3, engine);
    session.ruleSet(ProtocolConfig::correct(), 3); // build outside

    long pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const rlim_t cap = static_cast<rlim_t>(pages) *
                           static_cast<rlim_t>(::sysconf(_SC_PAGESIZE)) +
                       (24u << 20);
    const rlimit lim{cap, cap};
    if (pages <= 0 || ::setrlimit(RLIMIT_AS, &lim) != 0)
        std::exit(3);
    const CheckResult res = session.run(req);
    std::exit(res.verdict == CheckResult::Verdict::Incomplete &&
                      res.stopReason == StopReason::Memory
                  ? 0
                  : 1);
}

TEST(GovernorDeathTest, OutOfMemoryEndsIncompleteOnEveryKind)
{
    // Running out of memory — the heap (ram) or the mmap backend's
    // mappings (mmap-compact) — is a governed memory stop, not an
    // abort from an uncaught std::bad_alloc.
#if defined(CXL_TEST_SANITIZED)
    GTEST_SKIP() << "RLIMIT_AS caps cannot hold a sanitizer runtime";
#else
    for (StoreKind kind : {StoreKind::InRam, StoreKind::MmapCompact}) {
        EXPECT_EXIT(exploreUnderAddressSpaceCap(kind),
                    ::testing::ExitedWithCode(0), "")
            << storeKindWord(kind);
    }
#endif
}
#endif // __linux__

// ----------------------------------------------------- cancellation

TEST(Governor, PreCancelledTokenStopsBeforeExpansion)
{
    const CancelToken token = CancelToken::create();
    token.cancel();
    CheckSession session;
    for (std::size_t threads : {1u, 4u}) {
        EngineOptions engine;
        engine.threads = threads;
        engine.cancel = token;
        const CheckResult res = session.run(freeRunRequest(2, engine));
        expectGovernedStop(res, StopReason::Cancelled, "cancelled");
    }
}

TEST(Governor, AsyncCancelStopsARunningExploration)
{
    // Cancel from another thread mid-run: the 3-device space takes
    // seconds, the cancel lands after ~30 ms, and the run must come
    // back promptly with the explored prefix.
    const CancelToken token = CancelToken::create();
    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        token.cancel();
    });
    EngineOptions engine;
    engine.threads = 4;
    engine.cancel = token;
    CheckSession session;
    const CheckResult res = session.run(freeRunRequest(3, engine));
    canceller.join();
    expectGovernedStop(res, StopReason::Cancelled, "cancelled");
    EXPECT_LT(res.states, 860925u);
}

TEST(Governor, InvalidTokenMeansNotCancellable)
{
    // A default-constructed (invalid) token never reads cancelled,
    // so an unbudgeted run completes exactly as before.
    const CancelToken none;
    EXPECT_FALSE(none.valid());
    EXPECT_FALSE(none.cancelled());
}

TEST(Governor, SigintTripsTheInstalledToken)
{
    // The CLI bridge: installSignalCancel binds the token, raise()
    // stands in for a user's Ctrl-C, and the next run ends as a
    // graceful cancelled Incomplete — same shape as the token API.
    const CancelToken token = CancelToken::create();
    installSignalCancel(token);
    ASSERT_FALSE(token.cancelled());
    std::raise(SIGINT);
    EXPECT_TRUE(token.cancelled());
    uninstallSignalCancel();

    EngineOptions engine;
    engine.cancel = token;
    engine.threads = 2;
    CheckSession session;
    const CheckResult res = session.run(freeRunRequest(2, engine));
    expectGovernedStop(res, StopReason::Cancelled, "cancelled");
}

TEST(Governor, SignalBridgeInstallIsFirstWins)
{
    // Layered installs (the daemon claims the bridge before
    // standardOptions arms the every-CLI one): the first token stays
    // bound and every later call is handed that same token back —
    // observable as flag aliasing.
    const CancelToken first = CancelToken::create();
    installSignalCancel(first);

    const CancelToken second = CancelToken::create();
    const CancelToken bound = installSignalCancel(second);
    ASSERT_TRUE(bound.valid());

    std::raise(SIGTERM);
    EXPECT_TRUE(first.cancelled());
    EXPECT_TRUE(bound.cancelled()); // bound aliases first, ...
    EXPECT_FALSE(second.cancelled()); // ... not the late-comer
    uninstallSignalCancel();

    // After uninstall the bridge is free for a fresh token.
    const CancelToken fresh = CancelToken::create();
    const CancelToken rebound = installSignalCancel(fresh);
    EXPECT_FALSE(rebound.cancelled());
    std::raise(SIGINT);
    EXPECT_TRUE(fresh.cancelled());
    EXPECT_TRUE(rebound.cancelled());
    uninstallSignalCancel();
}

TEST(Governor, SignalBridgeIgnoresInvalidTokens)
{
    // An invalid token installs nothing: no handler is armed, and
    // the invalid token is just echoed back.
    const CancelToken none;
    EXPECT_FALSE(installSignalCancel(none).valid());

    // A real install still works afterwards, and an invalid-token
    // call then returns the bound token (flag-aliased).
    const CancelToken token = CancelToken::create();
    installSignalCancel(token);
    const CancelToken bound = installSignalCancel(none);
    ASSERT_TRUE(bound.valid());
    token.cancel();
    EXPECT_TRUE(bound.cancelled());
    uninstallSignalCancel();
}

TEST(Governor, SignalBridgeInstallIsThreadSafe)
{
    // Concurrent installs agree on a single winner; every caller is
    // handed the same token, so layered front-ends can't split the
    // bridge.
    constexpr int kThreads = 8;
    std::vector<CancelToken> returned(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&returned, i] {
            returned[i] = installSignalCancel(CancelToken::create());
        });
    }
    for (std::thread &t : threads)
        t.join();
    returned[0].cancel();
    for (int i = 1; i < kThreads; ++i) {
        ASSERT_TRUE(returned[i].valid()) << i;
        EXPECT_TRUE(returned[i].cancelled()) << i;
    }
    uninstallSignalCancel();
}

// ------------------------------------------------------ shard full

TEST(Governor, ShardFullStopsGracefullyAtToyCapacity)
{
    // A 64-entry store cannot hold the 5218-state space; the
    // StoreFullError must be converted into a graceful Incomplete,
    // not escape as an exception.
    CheckSession session;
    for (std::size_t threads : {1u, 4u}) {
        EngineOptions engine;
        engine.threads = threads;
        engine.storeCapacity = 64;
        CheckResult res;
        ASSERT_NO_THROW(res = session.run(freeRunRequest(2, engine)))
            << "threads " << threads;
        expectGovernedStop(res, StopReason::ShardFull, "shard_full");
        EXPECT_LT(res.states, kTwoDevFreeRunStates);
    }
}

TEST(Governor, StoreFullErrorNamesShardAndRemedies)
{
    // The raw store-level throw (what the explorers catch) must tell
    // a user which shard filled and which flags raise the ceiling.
    StateStore store(16, StoreMode::Full,
                     /*capacity_limit=*/16); // 1 entry per shard
    SystemState parent = initialAllInvalid();
    auto [pid, fresh] =
        store.insert(parent, StateStore::kNoParent, 0, 0);
    ASSERT_TRUE(fresh);
    try {
        // Distinct states eventually revisit pid's shard and overflow
        // its single slot.
        for (Val v = 1; v < 64; ++v)
            store.insert(initialBothShared(v), pid, 0, 1);
        FAIL() << "expected StoreFullError";
    } catch (const StoreFullError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("shard"), std::string::npos) << what;
        // The message names the computed per-shard ceiling (16
        // states across 16 shards -> 1 entry) ...
        EXPECT_NE(what.find("per-shard limit 1 entries"),
                  std::string::npos)
            << what;
        // ... and every store kind a user could switch to.
        EXPECT_NE(what.find("--expect-states"), std::string::npos)
            << what;
        EXPECT_NE(what.find("--store=ram|mmap-compact"),
                  std::string::npos)
            << what;
        EXPECT_LT(e.shard(), StateStore::kNumShards);
    }
}

// ------------------------------------------- completed-run baseline

TEST(Governor, CompletedRunsCarryNoStopReason)
{
    CheckSession session;
    const CheckResult res =
        session.run(freeRunRequest(2, EngineOptions{}));
    EXPECT_TRUE(res.holds());
    EXPECT_EQ(res.stopReason, StopReason::None);
    EXPECT_EQ(res.deepestCompleteLevel, res.diameter);

    const JsonValue doc = parseJson(res.renderJson());
    ASSERT_NE(doc.get("stop_reason"), nullptr);
    EXPECT_TRUE(doc.get("stop_reason")->isNull());
    EXPECT_EQ(doc.getNum("deepest_complete_level"),
              doc.getNum("diameter"));
}

// -------------------------------------------------- oracle quarantine

TEST(Oracle, PlantedSlowArmIsQuarantinedNotCompared)
{
    // Plant a guard that naps on every evaluation into exactly one
    // portfolio arm: that arm blows the per-arm budget and must be
    // quarantined (reported, excluded from the cross-checks) while
    // the untouched reference still decides the case.
    fuzz::FuzzCase c;
    c.devices = 2;
    c.init = fuzz::InitKind::BothShared;
    c.programs = {{Instr::Store}, {Instr::Load}};

    fuzz::OracleOptions oopt;
    oopt.portfolio = {fuzz::ComboDesc{false, false, true, 1}};
    oopt.randomWalkProbe = false;
    oopt.armMaxSeconds = 0.2;
    oopt.sessionHook = [&](CheckSession &session,
                           const fuzz::ComboDesc &combo) {
        if (!combo.compact)
            return;
        Rule sleepy;
        sleepy.name = "planted_sleeper";
        sleepy.guard = [](const SystemState &, const Context &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            return false; // never fires: same verdict, just slow
        };
        sleepy.apply = [](SystemState &, const Context &) {
            return true;
        };
        session.mutableRuleSet(c.config, c.devices)
            .addRule(std::move(sleepy));
    };
    const fuzz::Oracle oracle(std::move(oopt));
    const fuzz::OracleReport report = oracle.check(c);

    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_NE(report.quarantined[0].find("/compact/"),
              std::string::npos)
        << report.quarantined[0];
    EXPECT_NE(report.quarantined[0].find(
                  stopReasonPhrase(StopReason::Deadline)),
              std::string::npos)
        << report.quarantined[0];
    EXPECT_FALSE(report.diverged())
        << "a quarantined arm must not be compared";
    EXPECT_NE(report.reference.verdict, "incomplete")
        << "the unbudgeted-in-practice reference still decides";
}

// ------------------------------------------------- corpus handling

TEST(Corpus, MalformedEntryNamesTheOffendingFile)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "cxl_governor_corpus_test";
    fs::create_directories(dir);
    const fs::path bad = dir / "broken.json";
    {
        std::ofstream out(bad);
        out << "{ this is not json";
    }
    try {
        fuzz::loadCorpus(dir.string());
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("broken.json"),
                  std::string::npos)
            << e.what();
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace cxl
