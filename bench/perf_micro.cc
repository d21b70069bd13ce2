/**
 * @file
 * E11 — microbenchmarks (google-benchmark) backing the proof-scale
 * discussion of paper Section 6: state hashing, tid canonicalisation,
 * successor enumeration, invariant evaluation, store insertion, and
 * end-to-end exhaustive verification throughput.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "api/check.hh"
#include "bench_common.hh"
#include "checker/state_store.hh"

using namespace cxl;

namespace
{

SystemState
busyState()
{
    SystemState s = initialBothShared(1);
    s.dev[0].state = DState::SMAD;
    s.dev[0].d2hReq.pushBack({D2HReqOp::RdOwn, 0});
    s.dev[1].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    s.dev[1].h2dData.pushBack({1, 1, 0});
    s.counter = 2;
    return s;
}

void
BM_StateHash(benchmark::State &state)
{
    SystemState s = busyState();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.hash());
        s.counter ^= 1; // defeat value caching
    }
}
BENCHMARK(BM_StateHash);

void
BM_StateFingerprint(benchmark::State &state)
{
    // The second hash paid per successor in hash-compaction mode.
    SystemState s = busyState();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.fingerprint());
        s.counter ^= 1;
    }
}
BENCHMARK(BM_StateFingerprint);

void
BM_DeviceCanonical(benchmark::State &state)
{
    // The symmetry-reduction hot path: ndev! images with early-abort
    // comparison; the argument is the device count.
    const int ndev = static_cast<int>(state.range(0));
    SystemState s = initialBothShared(1, ndev);
    s.dev[0].state = DState::SMAD;
    s.dev[0].d2hReq.pushBack({D2HReqOp::RdOwn, 0});
    s.dev[1].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    s.counter = 2;
    s.canonicaliseTids();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.deviceCanonical(true, true));
        s.dev[ndev - 1].pc ^= 1; // defeat value caching
    }
}
BENCHMARK(BM_DeviceCanonical)->Arg(2)->Arg(3)->Arg(4);

void
BM_CanonicaliseTids(benchmark::State &state)
{
    SystemState s = busyState();
    for (auto _ : state) {
        SystemState copy = s;
        copy.canonicaliseTids();
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_CanonicaliseTids);

/** Device count of the per-state kernel benches' sample. */
constexpr int kSampleDevices = 3;

/**
 * A fixed sample of 4,096 reachable 3-device free-run states (tid
 * canonical): the end points of seeded random walks of 0-59 steps
 * from the initial state, so the sample spans the space's depths
 * rather than one hand-picked state.
 */
const std::vector<SystemState> &
reachableSample()
{
    static const std::vector<SystemState> sample = [] {
        const RuleSet rules(ProtocolConfig::correct(), kSampleDevices);
        const Scenario sc = Scenario::freeRunScenario(kSampleDevices);
        std::vector<SystemState> out;
        std::vector<RuleSet::Successor> succ;
        std::uint64_t x = 0x5eed;
        auto next = [&x] {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            return x >> 33;
        };
        while (out.size() < 4096) {
            SystemState s = sc.initial;
            for (std::uint64_t steps = next() % 60; steps > 0; --steps) {
                rules.successorsInto(s, sc, true, succ);
                if (succ.empty())
                    break;
                s = succ[next() % succ.size()].state;
            }
            out.push_back(s);
        }
        return out;
    }();
    return sample;
}

void
BM_SuccessorEnumeration(benchmark::State &state)
{
    // One state of the sample per iteration, through the explorer's
    // allocation-free entry point.
    CheckSession session;
    const RuleSet &rules =
        session.ruleSet(ProtocolConfig::correct(), kSampleDevices);
    const Scenario sc = Scenario::freeRunScenario(kSampleDevices);
    const std::vector<SystemState> &sample = reachableSample();
    std::vector<RuleSet::Successor> succs;
    std::size_t at = 0;
    for (auto _ : state) {
        rules.successorsInto(sample[at], sc, true, succs);
        benchmark::DoNotOptimize(succs.data());
        benchmark::ClobberMemory();
        at = at + 1 == sample.size() ? 0 : at + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SuccessorEnumeration);

void
BM_InvariantEvaluation(benchmark::State &state)
{
    CheckSession session;
    const InvariantSet &inv =
        session.invariantSet(ProtocolConfig::correct(), kSampleDevices);
    const Scenario sc = Scenario::freeRunScenario(kSampleDevices);
    Context ctx{&sc};
    const std::vector<SystemState> &sample = reachableSample();
    std::size_t at = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(inv.firstFailure(sample[at], ctx));
        at = at + 1 == sample.size() ? 0 : at + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvariantEvaluation);

/** 256 distinct states; @p hval tells two batches apart. */
std::vector<SystemState>
insertBatch(Val hval)
{
    std::vector<SystemState> batch;
    for (int i = 0; i < 256; ++i) {
        SystemState s;
        s.hval = hval;
        s.counter = static_cast<std::uint8_t>(i);
        s.dev[0].pc = static_cast<std::uint8_t>(i >> 4);
        batch.push_back(s);
    }
    return batch;
}

/**
 * Replace @p store by a fresh one of @p mode, untimed, and fill it
 * with one warm-up batch: the first insert into each shard allocates
 * and faults in its blocks, which would otherwise dominate a
 * 256-insert iteration.
 */
void
freshStore(benchmark::State &state, std::optional<StateStore> &store,
           StoreMode mode)
{
    state.PauseTiming();
    store.reset();
    store.emplace(1024, mode);
    for (const SystemState &s : insertBatch(1))
        store->insert(s, StateStore::kNoParent, 0, 0);
    state.ResumeTiming();
}

void
BM_StateStoreInsert(benchmark::State &state)
{
    // Insert a batch of distinct states per iteration into a fresh
    // store, built and torn down untimed.
    const std::vector<SystemState> batch = insertBatch(0);
    std::optional<StateStore> store;
    for (auto _ : state) {
        freshStore(state, store, StoreMode::Full);
        for (const auto &s : batch)
            store->insert(s, StateStore::kNoParent, 0, 0);
        benchmark::DoNotOptimize(store->size());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_StateStoreInsert);

void
BM_StateStoreInsertCompact(benchmark::State &state)
{
    // The same insertion stream through the hash-compacted store:
    // fingerprints are computed and stored instead of state bytes.
    const std::vector<SystemState> batch = insertBatch(0);
    std::optional<StateStore> store;
    for (auto _ : state) {
        freshStore(state, store, StoreMode::Compact);
        for (const auto &s : batch)
            store->insert(s, StateStore::kNoParent, 0, 0);
        benchmark::DoNotOptimize(store->size());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_StateStoreInsertCompact);

void
BM_StateStoreInsertBatched(benchmark::State &state)
{
    // The explorer's flush path: one insertBatch call versus 256
    // single-lock round trips.
    std::vector<StateStore::BatchItem> items(256);
    const std::vector<SystemState> batch = insertBatch(0);
    for (int i = 0; i < 256; ++i) {
        items[i].state = batch[i];
        items[i].hash = batch[i].hash();
    }
    std::optional<StateStore> store;
    for (auto _ : state) {
        freshStore(state, store, StoreMode::Full);
        store->insertBatch(items.data(), items.size());
        benchmark::DoNotOptimize(store->size());
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_StateStoreInsertBatched);

void
BM_ExhaustiveSwmrVerification(benchmark::State &state)
{
    // End-to-end Theorem 6.2 through the session façade: the full
    // free-run space with all conjuncts checked on every state.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    std::uint64_t states = 0;
    for (auto _ : state) {
        CheckResult res = session.run(req);
        states = res.states;
        benchmark::DoNotOptimize(res.states);
    }
    state.SetItemsProcessed(state.iterations() * states);
    state.counters["reachable_states"] =
        static_cast<double>(states);
}
BENCHMARK(BM_ExhaustiveSwmrVerification)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_ParallelSwmrVerification(benchmark::State &state)
{
    // The same end-to-end run through the depth-synchronized
    // parallel engine; the argument is the worker-thread count.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    EngineOptions engine;
    engine.threads = static_cast<std::size_t>(state.range(0));
    req.engine = engine;
    std::uint64_t states = 0;
    for (auto _ : state) {
        CheckResult res = session.run(req);
        states = res.states;
        benchmark::DoNotOptimize(res.states);
    }
    state.SetItemsProcessed(state.iterations() * states);
}
BENCHMARK(BM_ParallelSwmrVerification)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_LitmusExhaustive(benchmark::State &state)
{
    // The alternating_ops scenario: the largest litmus state space.
    CheckSession session;
    CheckRequest req;
    req.scenario = "alternating_ops";
    for (auto _ : state) {
        CheckResult res = session.run(req);
        benchmark::DoNotOptimize(res.states);
    }
}
BENCHMARK(BM_LitmusExhaustive)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Console reporter that also captures every finished run, so a
 * `--json <path>` invocation can drop BENCH_micro.json next to the
 * human-readable table (names, per-iteration real/cpu time, items/sec
 * and custom counters, plus the process peak RSS).
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &report) override
    {
        for (const Run &run : report)
            runs_.push_back(run);
        ConsoleReporter::ReportRuns(report);
    }

    void
    writeJson(const std::string &path) const
    {
        std::vector<std::string> rows;
        for (const Run &run : runs_) {
            if (run.error_occurred)
                continue;
            cxl::bench::JsonObject row;
            const double iters =
                run.iterations > 0
                    ? static_cast<double>(run.iterations)
                    : 1.0;
            row.str("name", run.benchmark_name())
                .num("iterations",
                     static_cast<std::uint64_t>(run.iterations))
                .num("real_ns_per_iter",
                     run.real_accumulated_time * 1e9 / iters)
                .num("cpu_ns_per_iter",
                     run.cpu_accumulated_time * 1e9 / iters);
            for (const auto &[name, counter] : run.counters)
                row.num(name, static_cast<double>(counter));
            rows.push_back(row.render());
        }
        cxl::bench::JsonObject json;
        json.str("bench", "perf_micro")
            .num("peak_rss_bytes", cxl::bench::peakRssBytes())
            .raw("benchmarks", cxl::bench::JsonObject::array(rows));
        cxl::bench::writeJsonFile(path, json);
    }

  private:
    std::vector<Run> runs_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Intercept the repo-wide `--json <path>` / `--json=<path>` flag
    // before google-benchmark rejects it as unrecognised.
    std::string json_path;
    std::vector<char *> passthrough;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--json") == 0 &&
            i + 1 < argc) {
            json_path = argv[++i];
            continue;
        }
        if (i > 0 && std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
            continue;
        }
        passthrough.push_back(argv[i]);
    }
    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;

    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!json_path.empty())
        reporter.writeJson(json_path);
    benchmark::Shutdown();
    return 0;
}
