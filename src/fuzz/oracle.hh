/**
 * @file
 * The cross-engine differential oracle: run one FuzzCase through a
 * portfolio of engine combinations — {por on/off} x {symmetry
 * on/off} x {full/compact store} x thread counts, plus one
 * mmap-backend arm per portfolio — and cross-check the
 * VerdictSignatures under the engine's documented guarantees.  Any
 * disagreement those guarantees forbid is an engine bug, reported as
 * a divergence.
 *
 * What is comparable depends on the run:
 *  - verdict / violation kind / family: always (between decided runs)
 *  - violated conjunct name + violation depth: when neither run was
 *    cap-truncated (capped parallel runs stop at thread-dependent
 *    points, so different combos can surface different witnesses)
 *  - state count + diameter: additionally only within a symmetry
 *    class — symmetry reduction changes counts by design
 *  - across symmetry classes the conjunct *name* may differ by device
 *    index (a symmetric violation can surface on any representative),
 *    so only kind + family + depth are compared there
 *  - symmetry combos run only for free-run (device-symmetric) cases;
 *    forcing symmetry on program scenarios is unsound by contract
 *  - Incomplete runs (cap hit first) are skipped entirely: a capped
 *    combo racing a violation against the cap may legitimately land
 *    on either side.
 */

#ifndef CXL_FUZZ_ORACLE_HH
#define CXL_FUZZ_ORACLE_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "api/check.hh"
#include "fuzz/case.hh"

namespace cxl::fuzz
{

/** One engine combination of the portfolio. */
struct ComboDesc {
    bool por = false;
    bool sym = false;
    bool compact = false;
    std::size_t threads = 1;

    /** Run this combo on the mmap backend of its compactness — the
     * out-of-core arms that keep the differential oracle honest
     * about backend-independence of verdicts and counts. */
    bool mmapStore = false;

    /** e.g. "por/sym/compact/t4" ("-/-/full/t1"); mmap arms append
     * "-mmap" to the store segment. */
    std::string label() const;

    EngineOptions engineOptions() const;
};

/**
 * The reference combination: single-threaded BFS, no reduction, full
 * store.  Single-threaded capped runs stop at an exact point, so this
 * signature is deterministic for every case — it is what corpus
 * entries store and what manifests are built from.
 */
ComboDesc referenceCombo();

/** The full 8-combo cross product at one thread count, plus the
 * mmap arm (and the reference, which the oracle always runs
 * first). */
std::vector<ComboDesc> fullPortfolio(std::size_t threads);

/**
 * The corpus-replay portfolio: {por} x {sym} at each of
 * @p threadCounts, plus a compact-store probe and an mmap-backend
 * probe per thread count.
 */
std::vector<ComboDesc>
replayPortfolio(const std::vector<std::size_t> &threadCounts);

/**
 * Run just the reference combination over @p c (fresh session) and
 * condense the result — the signature corpus entries store, manifests
 * list, and the minimizer preserves.
 */
VerdictSignature referenceSignature(const FuzzCase &c);

/** One portfolio member's condensed outcome. */
struct ComboRun {
    ComboDesc combo;
    VerdictSignature sig;
    std::string verdictLine; ///< the run's verdictText()
};

/** The oracle's judgement on one case. */
struct OracleReport {
    std::string caseName;
    VerdictSignature reference; ///< referenceCombo()'s signature
    std::vector<ComboRun> runs; ///< reference first
    std::vector<std::string> divergences;

    /**
     * Arms whose run a resource budget ended (armMaxSeconds, or an
     * inherited memory/cancel limit), as "label: reason" lines.  A
     * quarantined arm is *excluded* from every cross-check — an
     * undecided prefix is not comparable — but never silently: the
     * front-ends surface these lines so a hanging combination reads
     * as "quarantined", not "passed".
     */
    std::vector<std::string> quarantined;

    bool diverged() const { return !divergences.empty(); }
};

/** Oracle knobs. */
struct OracleOptions {
    /** Combinations to run besides the reference. */
    std::vector<ComboDesc> portfolio = fullPortfolio(1);

    /**
     * Independent-implementation probe: when the reference says the
     * space is clean and complete, a RandomWalker samples the same
     * model and must not find a violation either.
     */
    bool randomWalkProbe = true;
    std::uint64_t walkWalks = 32;
    std::uint32_t walkSteps = 128;

    /**
     * Per-arm wall-clock budget in seconds (0 = none).  An arm that
     * exceeds it is quarantined (OracleReport::quarantined) and left
     * out of the cross-checks instead of hanging the whole oracle on
     * one pathological engine combination.  Deadline stops land at
     * wall-clock-dependent points, so any nonzero budget makes the
     * portfolio outcome timing-sensitive — use it as a safety net
     * (seconds, not milliseconds) for fuzzing sweeps, never for the
     * stored reference signatures (referenceSignature() takes no
     * budget and stays deterministic).
     */
    double armMaxSeconds = 0;

    /**
     * Tamper hook for the planted-divergence self-test: called on
     * every fresh per-combo session before its run, so a test can
     * corrupt exactly one combination's model (via mutableRuleSet /
     * RuleSet::addRule) and assert the cross-check catches it.
     */
    std::function<void(CheckSession &, const ComboDesc &)> sessionHook;
};

/** The differential oracle. */
class Oracle
{
  public:
    explicit Oracle(OracleOptions options = {});

    /** Run the portfolio over @p c and cross-check the signatures. */
    OracleReport check(const FuzzCase &c) const;

    const OracleOptions &options() const { return options_; }

  private:
    OracleOptions options_;
};

} // namespace cxl::fuzz

#endif // CXL_FUZZ_ORACLE_HH
