/**
 * @file
 * Scenario fuzzer + cross-engine differential oracle CLI: generate
 * seeded random scenarios (config bits x invariant families x device
 * counts x inline litmus programs), run each through the engine
 * portfolio ({por} x {sym} x {full, compact} stores), and
 * cross-check the verdict signatures.  Divergence = engine bug.
 * Novel agreeing signatures are minimized and promoted into the
 * persisted corpus.
 *
 * Usage:
 *   cxl_fuzz [--seed N] [--budget N] [--corpus DIR]       fuzz (default)
 *   cxl_fuzz --replay --corpus DIR                        replay corpus
 *            [--replay-threads 1,4,8]
 *   cxl_fuzz --minimize --corpus DIR                      re-minimize
 *
 * Shared flags (api::standardOptions): --devices N caps the generated
 * device count, --threads N sets the parallel portfolio arms' worker
 * count, --max-states N overrides the free-run state cap (default
 * 20000).  --no-minimize promotes unminimized cases (debugging aid).
 * --max-seconds S is a *global* budget: the fuzz/replay loop stops
 * between cases when it runs out (with a diagnostic — a truncated run
 * covers a prefix of the deterministic stream, so its corpus is a
 * prefix too, not comparable to a full run's).  --arm-max-seconds S
 * budgets each oracle arm; arms that exceed it are quarantined and
 * reported, never silently compared.  SIGINT/SIGTERM stop the loop
 * the same graceful way.
 *
 * Determinism: the generated stream depends only on --seed, --budget,
 * --devices and the starting corpus; stored signatures come from the
 * single-threaded reference combination, so two identical invocations
 * produce byte-identical corpus files and MANIFEST.txt regardless of
 * --threads (the fixed-seed CI job diffs exactly that).  Wall-clock
 * budgets trade that away: never pass --max-seconds/--arm-max-seconds
 * to a run whose corpus will be diffed.
 *
 * Exit status: 0 clean, 1 divergence / replay drift, 2 usage errors.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "api/options.hh"
#include "fuzz/corpus.hh"
#include "fuzz/gen.hh"
#include "fuzz/minimize.hh"
#include "fuzz/oracle.hh"

using namespace cxl;
using namespace cxl::fuzz;

namespace
{

void
printReport(const OracleReport &report, const FuzzCase &c)
{
    std::printf("DIVERGENCE in case %s:\n", report.caseName.c_str());
    for (const std::string &d : report.divergences)
        std::printf("  %s\n", d.c_str());
    for (const ComboRun &run : report.runs) {
        std::printf("  [%-20s] %s\n", run.combo.label().c_str(),
                    run.sig.key().c_str());
    }
    std::printf("  repro: %s\n", c.renderJson().c_str());
}

/** Budget-stopped arms are excluded from the cross-checks; say so. */
void
printQuarantined(const OracleReport &report)
{
    for (const std::string &q : report.quarantined)
        std::printf("  QUARANTINED arm %s (excluded from "
                    "cross-checks)\n",
                    q.c_str());
}

/**
 * Corpus files are external input: a malformed entry is a usage
 * error that names the offending file, not an uncaught exception.
 */
std::vector<CorpusEntry>
loadCorpusOrDie(const std::string &dir)
{
    try {
        return loadCorpus(dir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cannot load corpus: %s\n", e.what());
        std::exit(2);
    }
}

/**
 * Global loop budget: `--max-seconds` plus the SIGINT/SIGTERM token,
 * checked between cases so the fuzzer stops at a case boundary with
 * its corpus and manifest intact.
 */
struct LoopBudget {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    double maxSeconds = 0;
    CancelToken cancel;

    /** Non-null stop description once the budget is gone. */
    const char *stopWhy() const
    {
        if (cancel.valid() && cancel.cancelled())
            return "cancelled (SIGINT/SIGTERM)";
        if (maxSeconds > 0 &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                    .count() >= maxSeconds) {
            return "global --max-seconds budget exhausted";
        }
        return nullptr;
    }
};

/** Parse `--arm-max-seconds` (0 = none); exits 2 on junk. */
double
armBudgetOption(const CliArgs &args)
{
    if (!args.has("arm-max-seconds"))
        return 0;
    const std::string raw = args.get("arm-max-seconds", "");
    char *end = nullptr;
    const double secs = std::strtod(raw.c_str(), &end);
    if (raw.empty() || end == raw.c_str() || *end != '\0' ||
        !(secs > 0)) {
        std::fprintf(stderr,
                     "--arm-max-seconds '%s' out of range (want a "
                     "positive number of seconds)\n",
                     raw.c_str());
        std::exit(2);
    }
    return secs;
}

std::vector<std::size_t>
parseThreadList(const std::string &text)
{
    std::vector<std::size_t> counts;
    std::size_t at = 0;
    while (at < text.size()) {
        const std::size_t comma = text.find(',', at);
        const std::string tok =
            text.substr(at, comma == std::string::npos
                                ? std::string::npos
                                : comma - at);
        if (!tok.empty())
            counts.push_back(static_cast<std::size_t>(
                std::strtoull(tok.c_str(), nullptr, 10)));
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    return counts;
}

int
runReplay(const std::string &corpusDir, const CliArgs &args,
          const api::StandardOptions &opts)
{
    const std::vector<CorpusEntry> corpus = loadCorpusOrDie(corpusDir);
    if (corpus.empty()) {
        std::printf("corpus %s is empty; nothing to replay\n",
                    corpusDir.c_str());
        return 0;
    }
    std::vector<std::size_t> counts =
        parseThreadList(args.get("replay-threads", "1,4,8"));
    if (counts.empty())
        counts = {1};

    OracleOptions oopt;
    oopt.portfolio = replayPortfolio(counts);
    oopt.armMaxSeconds = armBudgetOption(args);
    const Oracle oracle(std::move(oopt));

    const LoopBudget budget{std::chrono::steady_clock::now(),
                            opts.engine.maxSeconds,
                            opts.engine.cancel};
    bool bad = false;
    std::size_t replayed = 0;
    for (const CorpusEntry &entry : corpus) {
        if (const char *why = budget.stopWhy()) {
            std::printf("replay stopped early (%s) after %zu/%zu "
                        "cases; the rest are UNVERIFIED\n",
                        why, replayed, corpus.size());
            break;
        }
        const OracleReport report = oracle.check(entry.fuzzCase);
        ++replayed;
        printQuarantined(report);
        const bool drift =
            report.reference.key() != entry.signature.key();
        if (drift) {
            bad = true;
            std::printf("DRIFT in case %s:\n  stored   %s\n"
                        "  observed %s\n",
                        report.caseName.c_str(),
                        entry.signature.key().c_str(),
                        report.reference.key().c_str());
        }
        if (report.diverged()) {
            bad = true;
            printReport(report, entry.fuzzCase);
        }
        if (!drift && !report.diverged()) {
            if (report.quarantined.empty()) {
                std::printf("%s: ok (%s, %zu combos)\n",
                            report.caseName.c_str(),
                            report.reference.key().c_str(),
                            report.runs.size());
            } else {
                std::printf("%s: ok (%s, %zu combos, %zu "
                            "quarantined)\n",
                            report.caseName.c_str(),
                            report.reference.key().c_str(),
                            report.runs.size(),
                            report.quarantined.size());
            }
        }
    }
    std::printf("replayed %zu/%zu corpus cases across %zu combos: %s\n",
                replayed, corpus.size(),
                oracle.options().portfolio.size() + 1,
                bad ? "FAILED" : "all stable");
    return bad ? 1 : 0;
}

int
runMinimize(const std::string &corpusDir)
{
    std::vector<CorpusEntry> corpus = loadCorpusOrDie(corpusDir);
    std::size_t shrunk = 0;
    for (CorpusEntry &entry : corpus) {
        MinimizeStats stats;
        const FuzzCase min =
            minimizeCase(entry.fuzzCase, entry.signature, &stats);
        if (min == entry.fuzzCase) {
            std::printf("%s: already minimal (%zu candidates)\n",
                        entry.fuzzCase.name().c_str(),
                        stats.candidates);
            continue;
        }
        removeCorpusEntry(corpusDir, entry.fuzzCase.name());
        entry.fuzzCase = min;
        entry.signature = referenceSignature(min);
        saveCorpusEntry(corpusDir, entry);
        ++shrunk;
        std::printf("%s: shrunk (%zu of %zu candidates accepted)\n",
                    entry.fuzzCase.name().c_str(), stats.shrinks,
                    stats.candidates);
    }
    writeManifest(corpusDir, corpus);
    std::printf("minimized corpus: %zu/%zu entries shrunk\n", shrunk,
                corpus.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const api::StandardOptions opts = api::standardOptions(args);
    const std::string corpusDir = args.get("corpus", "");

    if (args.has("replay") || args.has("minimize")) {
        if (corpusDir.empty()) {
            std::fprintf(stderr,
                         "--replay/--minimize need --corpus DIR\n");
            return 2;
        }
        return args.has("replay") ? runReplay(corpusDir, args, opts)
                                  : runMinimize(corpusDir);
    }

    // ---- fuzz mode ---------------------------------------------------
    const std::uint64_t budget = static_cast<std::uint64_t>(
        args.getInt("budget", 100));

    GenOptions gopt;
    gopt.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    gopt.minDevices = 2;
    gopt.maxDevices = opts.devices;
    if (opts.userCapped)
        gopt.freeRunCap = opts.engine.maxStates;

    ScenarioGen gen(gopt);
    std::vector<CorpusEntry> corpus;
    std::set<std::string> seenCases;
    std::set<std::string> seenNovelty;
    if (!corpusDir.empty()) {
        corpus = loadCorpusOrDie(corpusDir);
        for (const CorpusEntry &entry : corpus) {
            gen.addSeed(entry.fuzzCase);
            seenCases.insert(entry.fuzzCase.name());
            seenNovelty.insert(entry.signature.noveltyKey());
        }
    }

    OracleOptions oopt;
    // The parallel portfolio arms run at --threads workers (0 = one
    // per hardware thread, like every other harness).
    oopt.portfolio = fullPortfolio(opts.engine.threads);
    oopt.armMaxSeconds = armBudgetOption(args);
    const Oracle oracle(std::move(oopt));

    const LoopBudget timebox{std::chrono::steady_clock::now(),
                             opts.engine.maxSeconds,
                             opts.engine.cancel};
    const bool minimizePromoted = !args.has("no-minimize");
    std::uint64_t ran = 0, skipped = 0, diverged = 0, promoted = 0;
    for (std::uint64_t i = 0; i < budget; ++i) {
        if (const char *why = timebox.stopWhy()) {
            // A truncated run explored a *prefix* of the
            // deterministic case stream: its corpus/manifest are
            // intact and replayable, but not diffable against a
            // full --budget run's.
            std::printf("fuzz stopped early (%s) after %llu of %llu "
                        "budgeted cases\n",
                        why, static_cast<unsigned long long>(i),
                        static_cast<unsigned long long>(budget));
            break;
        }
        const FuzzCase c = gen.next();
        if (!seenCases.insert(c.name()).second) {
            ++skipped; // duplicate of an earlier case this run
            continue;
        }
        const OracleReport report = oracle.check(c);
        ++ran;
        printQuarantined(report);
        if (report.diverged()) {
            ++diverged;
            printReport(report, c);
            continue;
        }
        if (!seenNovelty.insert(report.reference.noveltyKey())
                 .second) {
            continue;
        }
        // Novel signature class: minimize and persist.
        CorpusEntry entry;
        entry.fuzzCase = c;
        entry.signature = report.reference;
        if (minimizePromoted) {
            entry.fuzzCase = minimizeCase(c, report.reference);
            entry.signature = referenceSignature(entry.fuzzCase);
            // A violation may minimize into a class the corpus
            // already covers (smaller depth, same conjunct); don't
            // stack duplicates of it.
            if (entry.signature.noveltyKey() !=
                    report.reference.noveltyKey() &&
                !seenNovelty.insert(entry.signature.noveltyKey())
                     .second) {
                continue;
            }
        }
        bool duplicate = false;
        for (const CorpusEntry &have : corpus)
            duplicate |= have.fuzzCase == entry.fuzzCase;
        if (duplicate)
            continue;
        corpus.push_back(entry);
        ++promoted;
        if (!corpusDir.empty())
            saveCorpusEntry(corpusDir, entry);
        std::printf("promoted %s (%s)\n",
                    entry.fuzzCase.name().c_str(),
                    entry.signature.key().c_str());
    }
    if (!corpusDir.empty())
        writeManifest(corpusDir, corpus);

    std::printf("fuzz: seed=%llu budget=%llu ran=%llu dup=%llu "
                "promoted=%llu corpus=%zu divergences=%llu\n",
                static_cast<unsigned long long>(gopt.seed),
                static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(ran),
                static_cast<unsigned long long>(skipped),
                static_cast<unsigned long long>(promoted),
                corpus.size(),
                static_cast<unsigned long long>(diverged));
    return diverged ? 1 : 0;
}
