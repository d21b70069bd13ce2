#include "fuzz/oracle.hh"

#include "checker/random_walk.hh"
#include "support/hash.hh"

namespace cxl::fuzz
{

std::string
ComboDesc::label() const
{
    std::string out = por ? "por" : "-";
    out += sym ? "/sym" : "/-";
    out += compact ? "/compact" : "/full";
    if (mmapStore)
        out += "-mmap";
    out += "/t" + std::to_string(threads);
    return out;
}

EngineOptions
ComboDesc::engineOptions() const
{
    EngineOptions opt;
    opt.por = por;
    opt.symmetry = sym ? SymmetryMode::On : SymmetryMode::Off;
    opt.store = mmapStore
                    ? (compact ? StoreKind::MmapCompact
                               : StoreKind::Mmap)
                    : (compact ? StoreKind::InRamCompact
                               : StoreKind::InRam);
    opt.threads = threads;
    return opt;
}

ComboDesc
referenceCombo()
{
    return ComboDesc{};
}

std::vector<ComboDesc>
fullPortfolio(std::size_t threads)
{
    std::vector<ComboDesc> combos;
    for (bool por : {false, true}) {
        for (bool sym : {false, true}) {
            for (bool compact : {false, true})
                combos.push_back(ComboDesc{por, sym, compact, threads});
        }
    }
    // One out-of-core arm: the mmap backend must agree bit-for-bit
    // with the reference on verdicts and counts (the paging layer is
    // below the probe algorithm, so any divergence is a store bug).
    combos.push_back(ComboDesc{false, false, false, threads, true});
    return combos;
}

std::vector<ComboDesc>
replayPortfolio(const std::vector<std::size_t> &threadCounts)
{
    std::vector<ComboDesc> combos;
    for (std::size_t threads : threadCounts) {
        for (bool por : {false, true}) {
            for (bool sym : {false, true})
                combos.push_back(ComboDesc{por, sym, false, threads});
        }
        // One compact-store probe per thread count.
        combos.push_back(ComboDesc{false, false, true, threads});
        // And one mmap-backend probe, so replay also exercises the
        // out-of-core path against the stored reference signature.
        combos.push_back(ComboDesc{false, false, false, threads, true});
    }
    return combos;
}

VerdictSignature
referenceSignature(const FuzzCase &c)
{
    const ComboDesc combo = referenceCombo();
    CheckSession session(combo.engineOptions());
    CheckRequest req = c.toRequest();
    EngineOptions opt = combo.engineOptions();
    opt.maxStates = c.maxStates;
    req.engine = opt;
    return signatureOf(session.run(req), c.maxStates != 0);
}

namespace
{

bool
decided(const VerdictSignature &sig)
{
    return sig.verdict != "incomplete";
}

/**
 * Cross-check one run against the reference of its comparison scope.
 * @p sameSymClass selects the strict rules (conjunct name and counts
 * included) over the symmetry-invariant subset.
 */
void
compareRuns(const ComboRun &ref, const ComboRun &run,
            bool sameSymClass, std::vector<std::string> &out)
{
    const VerdictSignature &a = ref.sig;
    const VerdictSignature &b = run.sig;
    if (!decided(a) || !decided(b))
        return;

    const std::string tag =
        run.combo.label() + " vs " + ref.combo.label() + ": ";
    if (!sameSymClass) {
        // Across symmetry classes only the symmetry-invariant facts
        // are comparable: whether the space is clean, and the minimal
        // depth of the first bad state.  When several bad states share
        // that minimal depth, the deterministic winner is picked by a
        // key that includes the state fingerprint — which the orbit
        // quotient relabels — so verdict kind, conjunct and family are
        // only meaningful within one symmetry class (observed in the
        // wild: a case with a channel_singleton and an ordering
        // violation both at depth 5, the unreduced arms all reporting
        // the former and the reduced arms all the latter).
        const bool aBad = a.verdict != "holds";
        if (aBad != (b.verdict != "holds")) {
            out.push_back(tag + "verdict " + b.verdict + " != " +
                          a.verdict);
            return;
        }
        if (aBad && a.exactCounts && b.exactCounts &&
            a.depth != b.depth) {
            out.push_back(tag + "violation depth " +
                          std::to_string(b.depth) + " != " +
                          std::to_string(a.depth));
        }
        return;
    }
    if (a.verdict != b.verdict) {
        out.push_back(tag + "verdict " + b.verdict + " != " +
                      a.verdict);
        return;
    }
    if (a.kind != b.kind) {
        out.push_back(tag + "violation kind " + b.kind + " != " +
                      a.kind);
        return;
    }
    if (a.family != b.family) {
        out.push_back(tag + "violated family " + b.family + " != " +
                      a.family);
        return;
    }
    // Witness identity and counts only between runs whose numbers are
    // exact (completed, or violation-stopped with no cap in play).
    if (!a.exactCounts || !b.exactCounts)
        return;
    if (a.depth != b.depth) {
        out.push_back(tag + "violation depth " +
                      std::to_string(b.depth) + " != " +
                      std::to_string(a.depth));
    }
    if (sameSymClass && a.conjunct != b.conjunct) {
        out.push_back(tag + "violated conjunct " + b.conjunct +
                      " != " + a.conjunct);
    }
    if (sameSymClass) {
        if (a.states != b.states) {
            out.push_back(tag + "state count " +
                          std::to_string(b.states) + " != " +
                          std::to_string(a.states));
        }
        if (a.diameter != b.diameter) {
            out.push_back(tag + "diameter " +
                          std::to_string(b.diameter) + " != " +
                          std::to_string(a.diameter));
        }
    }
}

} // namespace

Oracle::Oracle(OracleOptions options) : options_(std::move(options)) {}

OracleReport
Oracle::check(const FuzzCase &c) const
{
    OracleReport report;
    report.caseName = c.name();
    const bool capped = c.maxStates != 0;

    auto runCombo = [&](const ComboDesc &combo) {
        // A fresh session per combo keeps runs independent (no shared
        // model state between the arms being differenced) and lets
        // the tamper hook target exactly one combination.
        CheckSession session(combo.engineOptions());
        if (options_.sessionHook)
            options_.sessionHook(session, combo);
        CheckRequest req = c.toRequest();
        EngineOptions opt = combo.engineOptions();
        opt.maxStates = c.maxStates;
        opt.maxSeconds = options_.armMaxSeconds;
        req.engine = opt;
        const CheckResult result = session.run(req);
        ComboRun run;
        run.combo = combo;
        run.sig = signatureOf(result, capped);
        run.verdictLine = result.verdictText();
        // A budget-stopped arm is undecided at a wall-clock-dependent
        // point: its signature already reads "incomplete" (so every
        // cross-check skips it), but record *why* so the front-ends
        // report the arm as quarantined rather than silently passed.
        switch (result.stopReason) {
          case StopReason::Deadline:
          case StopReason::Memory:
          case StopReason::Cancelled:
          case StopReason::ShardFull:
            report.quarantined.push_back(
                combo.label() + ": " +
                stopReasonPhrase(result.stopReason));
            break;
          default:
            break;
        }
        return run;
    };

    const ComboRun refRun = runCombo(referenceCombo());
    report.reference = refRun.sig;
    report.runs.reserve(options_.portfolio.size() + 1);
    report.runs.push_back(refRun);

    // The symmetry-on comparison scope gets its own reference (counts
    // under symmetry differ from unreduced counts by design); the
    // first symmetry run fills it.
    const ComboRun *symRef = nullptr;

    for (const ComboDesc &combo : options_.portfolio) {
        if (combo.sym && !c.freeRun) {
            // Forcing symmetry reduction on program scenarios is
            // unsound by contract; not a comparison arm.
            continue;
        }
        const ComboRun run = runCombo(combo);
        report.runs.push_back(run);
        const ComboRun &stored = report.runs.back();
        if (!combo.sym) {
            compareRuns(refRun, stored, /*sameSymClass=*/true,
                        report.divergences);
        } else if (symRef == nullptr) {
            // First symmetry arm: compare the symmetry-invariant
            // subset against the global reference, then anchor the
            // strict comparisons for later symmetry arms.
            compareRuns(refRun, stored, /*sameSymClass=*/false,
                        report.divergences);
            symRef = &stored;
        } else {
            compareRuns(*symRef, stored, /*sameSymClass=*/true,
                        report.divergences);
        }
    }

    // Independent-implementation probe: the walker shares no explorer
    // code, so a clean complete space it finds dirty (or vice versa a
    // violation it stumbles on) is a genuine disagreement.
    if (options_.randomWalkProbe && refRun.sig.verdict == "holds" &&
        refRun.sig.exactCounts) {
        CheckSession session;
        const Scenario scenario = c.toScenario();
        InvariantSet storage;
        const InvariantSet &invariants = selectFamilies(
            session.invariantSet(c.config, c.devices), c.families,
            storage);
        RandomWalker walker(session.ruleSet(c.config, c.devices),
                            scenario, invariants);
        RandomWalkOptions walkOpt;
        walkOpt.seed = hashBytes(report.caseName.data(),
                                 report.caseName.size());
        walkOpt.walks = options_.walkWalks;
        walkOpt.maxSteps = options_.walkSteps;
        const RandomWalkResult walked = walker.run(walkOpt);
        if (walked.violation) {
            report.divergences.push_back(
                "random-walk probe found a violation in a space the "
                "reference explored completely clean (" +
                walked.violation->describe() + ")");
        }
    }

    return report;
}

} // namespace cxl::fuzz
