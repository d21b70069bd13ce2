/**
 * @file
 * Breadth-first explicit-state explorer.
 *
 * This is the reproduction's counterpart of the paper's SWMR theorem
 * (Section 6): for the finite two-device, one-location model we
 * enumerate *every* reachable state and evaluate *every* invariant
 * conjunct on each, instead of proving preservation deductively.  On a
 * violation (or deadlock, if requested) the explorer reconstructs the
 * full rule-labelled trace from the initial state — the counterpart of
 * the paper's message-sequence-chart counterexamples (Fig. 5).
 *
 * Depth-synchronized levels are expanded by a worker pool over the
 * sharded StateStore, with per-worker scratch buffers merged at the
 * level barrier.  Results (state count, transition count, violation
 * verdict and depth) are deterministic regardless of thread count.
 */

#ifndef CXL_CHECKER_EXPLORER_HH
#define CXL_CHECKER_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checker/state_store.hh"
#include "invariants/invariant.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"
#include "support/governor.hh"

namespace cxl
{

/**
 * Exploration schedule: the depth-synchronized level-parallel BFS.
 * An enum so that EngineOptions::schedule stays source-compatible
 * for callers that set it explicitly.
 */
enum class Schedule : std::uint8_t {
    Bfs,
};

/**
 * A mid-run counter sample handed to ExploreOptions::progress.
 * Counters are relaxed reads of live worker state — monotonically
 * believable but not barrier-exact (the final ExploreResult is the
 * authoritative count).  depth is the deepest level any worker has
 * generated a successor into so far.
 */
struct ProgressSnapshot {
    std::uint64_t states = 0;      ///< distinct states inserted so far
    std::uint64_t transitions = 0; ///< rule firings examined so far
    std::uint32_t depth = 0;       ///< deepest level reached so far
    std::uint64_t rssBytes = 0;    ///< current process RSS
    double seconds = 0.0;          ///< wall-clock since run start
};

/**
 * Observer for periodic progress samples.  Called from engine worker
 * threads (one call at a time — emission is serialized), so it must
 * be thread-safe with respect to the caller's own state and must not
 * block for long: workers poll budgets at the same granularity.
 */
using ProgressFn = std::function<void(const ProgressSnapshot &)>;

/** Exploration limits and switches. */
struct ExploreOptions {
    std::uint64_t maxStates = 20'000'000;
    std::uint32_t maxDepth = 60000;

    /** Relabel tids per state; required for free-run finiteness. */
    bool canonicaliseTids = true;

    /**
     * Identify device-permutation-symmetric states (classic Murphi
     * scalarset reduction): every generated state is replaced by the
     * canonical representative of its orbit under all ndev! device
     * permutations (SystemState::deviceCanonical).  Only sound when
     * the scenario itself is device-symmetric (free-run, or identical
     * programs from a symmetric initial state).  This is what keeps
     * 3-4 device free-run spaces enumerable.
     */
    bool symmetryReduction = false;

    /**
     * Hash-compaction (fingerprint-only) storage: the visited set
     * keeps a second 64-bit verification fingerprint per state
     * instead of the state bytes, and releases old BFS levels' state
     * bytes as exploration advances — memory per state drops by
     * roughly an order of magnitude, which is what makes the 4-device
     * free-run space enumerable in RAM.  Counts and verdicts are
     * exact up to fingerprint collisions (expected ~ n^2 / 2^65;
     * detected probe-hash near-misses are reported via
     * ExploreResult::probeCollisions).  Counterexample *traces*
     * cannot be rebuilt in this mode: a violation is still found at
     * the same minimal depth, but Violation::trace carries at most
     * the final state and Violation::traceNote explains how to re-run
     * for the full path.
     */
    bool compaction = false;

    /**
     * Visited-set memory backend (see StoreBackend): InRam is the
     * classic heap store; Mmap gives every shard file-backed growable
     * mappings and unmaps sealed BFS levels, so the mapped window
     * tracks the frontier while the backing files keep every byte
     * (the out-of-core mode).
     * Verdicts, counts and diameters are backend-independent; under
     * Mmap counterexample traces are reconstructible even with
     * compaction on (sealed cells persist in the backing file).
     */
    StoreBackend storeBackend = StoreBackend::InRam;

    /** Mmap backend: backing-file directory ("" = anonymous
     * in-memory files). */
    std::string storeDir;

    /**
     * Pre-size the visited set for this many states (0 = default
     * sizing): eliminates rehash pauses and keeps the probe load
     * factor <= 0.5 through a run of the expected size.  A hint, not
     * a cap — exploration continues past it.
     */
    std::uint64_t expectedStates = 0;

    /**
     * Partial-order reduction (sleep sets over the rules' static
     * dependency footprints): prune successor firings whose effect is
     * covered by a commuting interleaving explored elsewhere in the
     * same BFS level structure.  Every reachable state is still
     * visited at its minimal depth, so state counts, diameters,
     * verdicts and violated-conjunct sets are identical to an
     * unreduced run — only numTransitions (and wall-clock) drop.
     * Composes with symmetryReduction (sleep masks are relabelled
     * through the canonicalising device permutation) and compaction.
     * See checker/por.hh.
     */
    bool por = false;

    /** Evaluate the invariant set on every reachable state. */
    bool checkInvariants = true;

    /** Stop at the first violation (otherwise count them all). */
    bool stopAtFirstViolation = true;

    /**
     * Report states with no enabled rule before the programs finished
     * (program mode only; free-run states always have successors).
     */
    bool checkDeadlock = true;

    /**
     * Wall-clock budget in seconds (0 = none).  A run that exceeds
     * it stops gracefully at batch-flush granularity and reports the
     * explored prefix with StopReason::Deadline.  Where the stop
     * lands is wall-clock-dependent by design — deadline-stopped
     * counts are not reproducible.
     */
    double maxSeconds = 0;

    /**
     * Resident-set ceiling in bytes (0 = none), sampled from
     * /proc/self/statm by the governor at flush granularity.  The
     * ceiling is process-wide *anonymous* RSS — resident minus
     * file-backed pages — so the mmap store backends' mappings
     * (which the kernel reclaims by writeback, not swap) do not
     * count against it.  Not per-run allocation, and the stop is
     * detected one sample stride after the crossing — treat it as a
     * safety net, not an exact budget.
     */
    std::uint64_t maxRssBytes = 0;

    /** External cancellation (SIGINT/SIGTERM via the CLIs, or any
     * other holder of the token); invalid token = not cancellable. */
    CancelToken cancel;

    /**
     * Total visited-set capacity (0 = the architectural 2^28 per
     * shard).  Hitting it stops the run gracefully with
     * StopReason::ShardFull instead of erroring — and makes the
     * shard-full path testable at toy sizes.
     */
    std::uint64_t storeCapacity = 0;

    /**
     * Periodic progress observer (empty = none).  Sampled at
     * governor-poll granularity — the same batch-flush cadence the
     * budgets ride — and rate-limited to one call per
     * progressIntervalSeconds.  Purely observational: verdicts and
     * counts are unaffected by whether a callback is installed.
     */
    ProgressFn progress;

    /** Minimum seconds between progress calls; <= 0 reports at every
     * flush (tests use that to see the stream without waiting). */
    double progressIntervalSeconds = 0.25;

    /**
     * Worker threads for the depth-synchronized parallel expansion;
     * 0 means one per hardware thread.  For runs that complete or
     * stop at a violation, any value yields the same
     * state/transition counts and violation verdict (the explorer
     * completes the BFS level a violation is found in and picks the
     * deterministically smallest witness); only wall-clock time and
     * the shape of the reconstructed trace may differ.  Runs
     * truncated by maxStates stop at a thread-dependent point: the
     * cap may be overshot by up to one state per worker and the
     * final counts are not comparable across thread counts.
     * Requests above 1024 workers are clamped.
     */
    std::size_t numThreads = 0;
};

/** A single step of a counterexample trace. */
struct TraceStep {
    std::string ruleName; ///< empty for the initial state
    SystemState state;
};

/** Description of a found violation. */
struct Violation {
    enum class Kind : std::uint8_t {
        Conjunct, ///< an invariant conjunct failed
        /**
         * A rule overfilled a channel (mutated models).  Counted per
         * overflowing transition: overflow is an edge property, and
         * gating it on target-state novelty would make the verdict
         * depend on which racing edge inserted the state first.
         */
        Overflow,
        Deadlock, ///< no rule enabled before program completion
    };

    Kind kind = Kind::Conjunct;
    std::string conjunctName;   ///< valid for Kind::Conjunct
    std::string conjunctFamily; ///< valid for Kind::Conjunct
    std::uint32_t stateIndex = 0;
    std::uint32_t depth = 0;

    /**
     * Kind::Overflow only: the rule whose channel push overflowed.
     * Recorded from the violating *edge* itself, so it is correct
     * even when that edge lands on an already-known state whose
     * breadcrumb path runs through a different rule.
     */
    std::string overflowRule;

    /**
     * Rule-labelled path from the initial state to the bad state.
     * For overflow violations the trace follows the overflowing
     * edge's own parent and ends with that edge (see overflowRule),
     * not the target state's breadcrumbs.  Empty or truncated when
     * traceNote is set.
     */
    std::vector<TraceStep> trace;

    /**
     * Non-empty when the trace could not be fully rebuilt (hash
     * compaction releases breadcrumb states); explains what is shown
     * and how to obtain the full path.
     */
    std::string traceNote;

    std::string describe() const;
};

/** Aggregate exploration results. */
struct ExploreResult {
    std::uint64_t numStates = 0;      ///< distinct reachable states
    std::uint64_t numTransitions = 0; ///< rule firings examined
    std::uint32_t maxDepth = 0;       ///< BFS diameter reached
    bool completed = false;           ///< frontier fully drained
    std::uint64_t violationCount = 0; ///< violations seen (counted mode)
    std::optional<Violation> violation;
    double seconds = 0.0;

    /**
     * Probe-hash collisions the store detected and kept separate
     * (see StateStore::probeCollisions).  A nonzero value in compact
     * mode is the visible tail of the fingerprinting risk; each one
     * would have been a silent state merge without the verification
     * fingerprint.
     */
    std::uint64_t probeCollisions = 0;

    /** Per-rule firing counts, indexed by rule id. */
    std::vector<std::uint64_t> ruleFireCounts;

    /**
     * Partial-order reduction accounting (zero when por is off):
     * enabled rule firings skipped because the rule sat in the
     * expanded state's sleep set.  numTransitions + sleptTransitions
     * is what an unreduced run of the same space would have explored.
     */
    std::uint64_t sleptTransitions = 0;

    /** Per-rule slept-firing counts, indexed by rule id (por only). */
    std::vector<std::uint64_t> ruleSleptCounts;

    /**
     * Why the governor stopped the run (StopReason::None when it
     * completed or stopped at a violation).  Every stop cause — cap,
     * deadline, memory, cancel, shard-full — lands here instead of
     * surfacing as an exception, and the counts above describe the
     * explored prefix exactly.
     */
    StopReason stopReason = StopReason::None;

    /**
     * Deepest BFS level known to be *fully* expanded when the run
     * ended: maxDepth for completed (and violation-stopped) runs; on
     * a governed stop, the last level every worker finished before
     * the stop word tripped.  States at or below this level have had
     * every successor generated, so per-level facts up to here are
     * trustworthy even in a partial result.
     */
    std::uint32_t deepestCompleteLevel = 0;

    /** Bytes still mapped by the store's file-backed shard memory at
     * the end of the run (0 for the InRam backend) — the out-of-core
     * mapped window. */
    std::uint64_t storeMappedBytes = 0;

    /** Final total size of the store's backing files (0 for InRam);
     * how much state the run spilled out of core. */
    std::uint64_t storeFileBytes = 0;
};

/**
 * BFS over the reachable states of (rules, scenario), checking
 * invariants on the way.
 */
class Explorer
{
  public:
    Explorer(const RuleSet &rules, const Scenario &scenario,
             const InvariantSet &invariants);

    /** Run to completion or until a limit/violation stops the walk. */
    ExploreResult run(const ExploreOptions &options = {});

  private:
    std::vector<TraceStep> rebuildTrace(const StateStore &store,
                                        std::uint32_t idx) const;

    const RuleSet &rules_;
    const Scenario &scenario_;
    const InvariantSet &invariants_;
};

} // namespace cxl

#endif // CXL_CHECKER_EXPLORER_HH
