/**
 * @file
 * The unified checker API: one façade over scenarios, engines and
 * verdicts for every front-end.
 *
 * A CheckRequest names what to verify (a registered scenario or an
 * inline program spec, the device count, which checks to run and
 * under which engine knobs); a CheckSession owns the construction of
 * rule sets, invariant sets and explorers — cached and shared across
 * requests — and turns each request into a structured CheckResult
 * (verdict, counts, per-conjunct status, timing, optional trace)
 * with renderText()/renderJson(), so callers never printf engine
 * internals or hand-assemble RuleSet + Scenario + InvariantSet +
 * Explorer themselves.
 *
 * The session also fronts the other two engines behind the same
 * model caches: guided rule-sequence walks (the paper's Tables 1-3
 * format), exhaustive litmus runs with expectations, and the
 * obligation-matrix engine (paper Fig. 1).  The Explorer is an
 * implementation detail behind run(); an mmap-backed or
 * partial-order-reduced engine can replace it without touching any
 * front-end.
 */

#ifndef CXL_API_CHECK_HH
#define CXL_API_CHECK_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/scenarios.hh"
#include "checker/explorer.hh"
#include "invariants/invariant.hh"
#include "litmus/litmus.hh"
#include "obligation/matrix.hh"
#include "obligation/universe.hh"
#include "protocol/config.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"

namespace cxl
{

/** Which properties a check runs. */
enum class CheckKind : std::uint8_t {
    Invariants, ///< evaluate the invariant set on every state
    Deadlock,   ///< report stuck states before program completion
    Both,
};

/** Device-permutation symmetry reduction policy. */
enum class SymmetryMode : std::uint8_t {
    /**
     * On exactly when it is sound and pays: free-run scenarios with
     * more than two devices (the swmr_statespace default since PR 2).
     */
    Auto,
    On,
    Off,
};

/**
 * Visited-state store kind (`--store=ram|ram-compact|mmap|mmap-compact`):
 * the cross product of the storage mode (full states vs Murphi hash
 * compaction; see ExploreOptions::compaction) and the memory backend
 * (heap vs per-shard file-backed mappings whose sealed BFS levels are
 * unmapped — the out-of-core mode; see StoreBackend).  The backend
 * never changes verdicts, counts or diameters; the serve layer's
 * cache key keeps only the compact bit.  `--compact` upgrades
 * whichever backend is selected to its compact kind.
 */
enum class StoreKind : std::uint8_t {
    InRam,         ///< heap, full states (the classic default)
    InRamCompact,  ///< heap, hash compaction
    Mmap,          ///< file-backed, full states, out-of-core sealing
    MmapCompact,   ///< file-backed, hash compaction
};

/** Whether a store kind uses hash compaction. */
constexpr bool
storeKindCompact(StoreKind k)
{
    return k == StoreKind::InRamCompact || k == StoreKind::MmapCompact;
}

/** Whether a store kind uses the file-backed (mmap) backend. */
constexpr bool
storeKindMmap(StoreKind k)
{
    return k == StoreKind::Mmap || k == StoreKind::MmapCompact;
}

/** The compact variant of @p k's backend (what `--compact` selects). */
constexpr StoreKind
storeKindCompacted(StoreKind k)
{
    return storeKindMmap(k) ? StoreKind::MmapCompact
                            : StoreKind::InRamCompact;
}

/** Canonical flag spelling of a store kind. */
constexpr const char *
storeKindWord(StoreKind k)
{
    switch (k) {
    case StoreKind::InRam:
        return "ram";
    case StoreKind::InRamCompact:
        return "ram-compact";
    case StoreKind::Mmap:
        return "mmap";
    case StoreKind::MmapCompact:
        return "mmap-compact";
    }
    return "ram";
}

/** Parse a `--store` word; nullopt on an unknown spelling. */
std::optional<StoreKind> storeKindFromWord(const std::string &word);

/** Engine knobs shared by every request of a session (overridable
 * per request). */
struct EngineOptions {
    /** Worker threads; 0 = one per hardware thread. */
    std::size_t threads = 0;

    SymmetryMode symmetry = SymmetryMode::Auto;
    StoreKind store = StoreKind::InRam;

    /** Mmap store kinds: directory for the backing files
     * (`--store-dir`; "" = anonymous in-memory files). */
    std::string storeDir;

    /** Exploration schedule; the depth-synchronized BFS is the only
     * one. */
    Schedule schedule = Schedule::Bfs;

    /**
     * Partial-order reduction (sleep sets over static rule
     * footprints; `--por`).  Off by default.  Prunes commuting
     * interleavings: every reachable state is still visited at its
     * minimal BFS depth, so verdicts, violated-conjunct sets, state
     * counts and diameters are identical to an unreduced run — only
     * the transition count (and time) drops.  Composes with both
     * symmetry modes and every store kind.
     */
    bool por = false;

    /** State cap; 0 = the explorer's built-in default. */
    std::uint64_t maxStates = 0;

    /** Pre-size the visited set (0 = default sizing). */
    std::uint64_t expectedStates = 0;

    bool stopAtFirstViolation = true;

    /** Wall-clock budget in seconds (`--max-seconds`; 0 = none).
     * Exceeding it ends the run gracefully as Incomplete with
     * stopReason Deadline. */
    double maxSeconds = 0;

    /** Process anonymous-RSS ceiling in bytes (`--max-rss-mb`;
     * 0 = none); crossing it ends the run as Incomplete with
     * stopReason Memory.  File-backed pages (the mmap store kinds'
     * mappings) are excluded so out-of-core runs are not tripped
     * for bytes the kernel can drop at will. */
    std::uint64_t maxRssBytes = 0;

    /** Cooperative cancellation (the CLIs wire SIGINT/SIGTERM to
     * this); an invalid token means not cancellable. */
    CancelToken cancel;

    /** Visited-set capacity ceiling (0 = architectural); hitting it
     * stops gracefully with stopReason ShardFull. */
    std::uint64_t storeCapacity = 0;

    /** Periodic mid-run progress observer (empty = none); see
     * ExploreOptions::progress.  The serve layer streams these as
     * wire frames. */
    ProgressFn progress;

    /** Minimum seconds between progress calls; <= 0 reports at every
     * batch flush. */
    double progressIntervalSeconds = 0.25;
};

/** One verification request. */
struct CheckRequest {
    /** Registered scenario name (see scenarios::byName); empty means
     * inlineScenario carries the program spec. */
    std::string scenario;

    /** Inline scenario; its initial state fixes the device count. */
    std::optional<Scenario> inlineScenario;

    /** Device count for device-scalable named scenarios; must match
     * the pinned count of non-scalable ones. */
    int devices = kDefaultNumDevices;

    /** Protocol configuration; defaults to the registry entry's
     * (inline scenarios default to ProtocolConfig::correct()). */
    std::optional<ProtocolConfig> config;

    /** Invariant families to check; defaults to the registry entry's
     * restriction (empty = the full strengthened invariant). */
    std::optional<std::vector<std::string>> families;

    CheckKind checks = CheckKind::Both;

    /** Per-request engine override of the session defaults. */
    std::optional<EngineOptions> engine;
};

/** Status of one invariant conjunct after a run. */
struct ConjunctStatus {
    std::string name;
    std::string family;

    /**
     * False iff this is the conjunct the run's violation names.  In
     * stop-at-first-violation mode the other conjuncts held on every
     * state explored up to the violation's BFS level; on a capped run
     * they held on the explored prefix.
     */
    bool held = true;
};

/** Firing count of one rule over a run. */
struct RuleFire {
    std::string name;
    bool mutated = false;
    std::uint64_t fires = 0;
    /** Enabled firings pruned by partial-order reduction (0 when
     * POR is off). */
    std::uint64_t slept = 0;
};

/** Structured result of one CheckSession::run. */
struct CheckResult {
    enum class Verdict : std::uint8_t {
        Holds,      ///< exploration complete, no violation
        Violated,   ///< an invariant conjunct or channel cap failed
        Deadlocked, ///< a program wedged before retiring
        Incomplete, ///< a budget stopped the run (see stopReason)
    };

    // ---- request echo (resolved) -------------------------------------
    std::string scenario;     ///< name, or the inline scenario's name
    Scenario scenarioSpec;    ///< the scenario actually explored
    int devices = 0;
    ProtocolConfig config;
    std::size_t numRules = 0;
    std::size_t numConjuncts = 0;

    // ---- engine echo (resolved) --------------------------------------
    std::size_t threads = 0;  ///< resolved worker count (never 0)
    bool symmetryReduction = false;
    bool compaction = false;
    bool mmapStore = false;   ///< file-backed (out-of-core) store
    bool por = false;
    std::uint64_t maxStates = 0;

    // ---- measurements ------------------------------------------------
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint32_t diameter = 0;
    bool completed = false;
    double seconds = 0.0;
    std::uint64_t probeCollisions = 0;

    /**
     * Resident-set growth across this run (current RSS sampled before
     * and after; 0 when the run released as much as it allocated).
     * Unlike the process-lifetime peak_rss_bytes this is a per-run
     * number, so consecutive cases in one bench process don't all
     * repeat the earlier maximum.
     */
    std::uint64_t rssDeltaBytes = 0;

    /** Bytes still mapped by the store's file-backed shard memory
     * when the run ended (0 for in-RAM kinds) — the out-of-core
     * mapped window, reported next to RSS because `ulimit -v` style
     * budgets cap mapped bytes, not residency. */
    std::uint64_t mappedFileBytes = 0;

    /** Total size of the store's backing files at the end of the run
     * (0 for in-RAM kinds); how much the run spilled. */
    std::uint64_t storeFileBytes = 0;

    /** Firings pruned by POR; transitions + sleptTransitions is the
     * unreduced fan-out of the same state space. */
    std::uint64_t sleptTransitions = 0;

    /** Why the governor ended the run early (None when it completed
     * or stopped at a violation); see ExploreResult::stopReason. */
    StopReason stopReason = StopReason::None;

    /** Deepest BFS level known fully expanded when the run ended;
     * see ExploreResult::deepestCompleteLevel. */
    std::uint32_t deepestCompleteLevel = 0;

    // ---- verdict -----------------------------------------------------
    Verdict verdict = Verdict::Incomplete;
    std::optional<Violation> violation; ///< includes the trace
    std::vector<ConjunctStatus> conjuncts;
    std::vector<RuleFire> ruleFires;

    bool holds() const { return verdict == Verdict::Holds; }

    /**
     * Deterministic one-line verdict: identical across thread counts
     * and machines for complete (or violation-stopped) runs — the
     * line the CI smoke matrix diffs against its goldens.
     */
    std::string verdictText() const;

    /** Multi-line human report; @p withTrace appends the witness
     * transition table and bad-state dump when a trace exists. */
    std::string renderText(bool withTrace = true) const;

    /**
     * Machine-readable result (schema "cxl-check-result/v1"): every
     * key is always present; violation fields are null when the run
     * held.  Benches embed these objects in their BENCH_*.json.
     *
     * @p deterministic zeroes the wall-clock- and allocator-dependent
     * keys (seconds, states_per_sec, peak_rss_bytes, rss_delta_bytes,
     * mapped_file_bytes, store_file_bytes) so two runs of the same request render
     * byte-identical JSON — the form the serve layer caches and the
     * served-vs-offline determinism checks diff.  Key set and order
     * are unchanged.
     */
    std::string renderJson(bool deterministic = false) const;
};

/** One obligation-matrix request (paper Fig. 1 / Section 7). */
struct ObligationRequest {
    int devices = kDefaultNumDevices;
    ProtocolConfig config = ProtocolConfig::correct();

    /** Invariant families forming the matrix columns (empty = full). */
    std::vector<std::string> families;

    UniverseOptions universe;
    MatrixOptions matrix;
};

/** Structured result of one CheckSession::obligations run. */
struct ObligationResult {
    int devices = 0;
    std::size_t numRules = 0;
    std::size_t numConjuncts = 0;
    std::size_t universeSize = 0;
    UniverseStats universeStats;
    MatrixResult matrix;

    std::string renderJson() const;
};

/** A guided rule-sequence walk plus the scenario it ran under. */
struct GuidedRun {
    Scenario scenario;
    std::vector<GuidedStep> steps;
};

/**
 * A verification session: shared engine defaults plus caches of the
 * per-(configuration, device-count) rule and invariant sets, so many
 * requests — a config table, a thread sweep, a litmus suite — reuse
 * one model build.  Not thread-safe; run requests sequentially (the
 * engines parallelise internally).
 *
 * Methods throw std::runtime_error on request errors (unknown
 * scenario name, device count out of range or mismatching a pinned
 * scenario, a guided step naming an unknown or disabled rule).
 */
class CheckSession
{
  public:
    explicit CheckSession(EngineOptions defaults = {});

    /** Explore the requested scenario and check the requested
     * properties. */
    CheckResult run(const CheckRequest &request);

    /** Fire an explicit rule-name sequence from the scenario's
     * initial state (the paper's Tables 1-3 walks). */
    GuidedRun guided(const CheckRequest &request,
                     const std::vector<std::string> &steps);

    /** Exhaustive litmus run with expectations, through the session's
     * model caches. */
    LitmusOutcome litmus(const LitmusTest &test);

    /** Discharge the obligation matrix.  The boundary universe is
     * cached, so re-running with different MatrixOptions (e.g. a
     * thread sweep) rebuilds nothing. */
    ObligationResult obligations(const ObligationRequest &request);

    /**
     * The cached rule / invariant sets for a configuration — the
     * extension point for harnesses (microbenchmarks, new engines)
     * that need the model without an exploration.
     */
    const RuleSet &ruleSet(const ProtocolConfig &config,
                           int devices = kDefaultNumDevices);
    const InvariantSet &invariantSet(const ProtocolConfig &config,
                                     int devices = kDefaultNumDevices);

    /**
     * Mutable access to the cached rule set — the tamper hook for
     * harnesses that need behaviour outside the ProtocolConfig space
     * (RuleSet::addRule experiments, and the fuzz oracle's
     * planted-divergence self-test, which corrupts exactly one
     * engine combination's session and asserts the cross-check flags
     * it).  Every later request of this session for the same
     * (config, devices) sees the modification.
     */
    RuleSet &mutableRuleSet(const ProtocolConfig &config,
                            int devices = kDefaultNumDevices);

    const EngineOptions &defaults() const { return defaults_; }

    /**
     * Reuse accounting of one cached (config-bits, devices) model.
     * Each live cache entry cost exactly one build (its miss); hits
     * count the later requests it served without rebuilding the
     * RuleSet/InvariantSet pair.
     */
    struct ModelCacheStat {
        int devices = 0;
        /** The 7 ProtocolConfig switches packed in modelKey order
         * (staleEvictDrop is the most significant bit). */
        std::uint32_t configBits = 0;
        std::uint64_t hits = 0;
    };

    /** Snapshot of the model cache's per-key reuse counters, in
     * ascending (devices, config-bits) key order. */
    std::vector<ModelCacheStat> modelCacheStats() const;

  private:
    struct Model {
        RuleSet rules;
        InvariantSet invariants; ///< the full strengthened set
        std::uint64_t hits = 0;  ///< cache-served requests after build
    };
    struct Resolved {
        Scenario scenario;
        ProtocolConfig config;
        std::vector<std::string> families;
        std::string name;
    };

    Model &modelFor(const ProtocolConfig &config, int devices);
    Resolved resolve(const CheckRequest &request) const;

    EngineOptions defaults_;
    std::map<std::uint32_t, std::unique_ptr<Model>> models_;

    // Most-recent boundary universe (they are hundreds of MB at
    // super_sketch scale, so only one is retained).
    std::string universeKey_;
    std::vector<SystemState> universe_;
    UniverseStats universeStats_;
};

} // namespace cxl

#endif // CXL_API_CHECK_HH
