#include "api/options.hh"

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "fuzz/corpus.hh"

namespace cxl::api
{

void
corpusOption(const CliArgs &args)
{
    const std::string dir = args.get("corpus", "");
    if (dir.empty())
        return;
    try {
        fuzz::promoteToRegistry(fuzz::loadCorpus(dir));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cannot load corpus: %s\n", e.what());
        std::exit(2);
    }
}

StandardOptions
standardOptions(const CliArgs &args, const char *defaultJsonPath)
{
    StandardOptions opt;
    opt.devices = deviceCountOption(args, kMaxDevices);
    opt.engine.threads = threadCountOption(args);

    if (args.has("no-sym"))
        opt.engine.symmetry = SymmetryMode::Off;
    else if (args.has("sym"))
        opt.engine.symmetry = SymmetryMode::On;

    // --store picks the visited-set backend by name; --compact then
    // upgrades whichever backend is selected to its hash-compacted
    // variant (order-independent, so sweep scripts can append either
    // flag as an override).
    if (args.has("store")) {
        const std::string word = args.get("store", "");
        const std::optional<StoreKind> kind = storeKindFromWord(word);
        if (!kind) {
            std::fprintf(stderr,
                         "--store '%s' unknown (want "
                         "ram|ram-compact|mmap|mmap-compact)\n",
                         word.c_str());
            std::exit(2);
        }
        opt.engine.store = *kind;
    }
    if (args.has("compact"))
        opt.engine.store = storeKindCompacted(opt.engine.store);
    opt.engine.storeDir = args.get("store-dir", "");

    // Partial-order reduction is opt-in; --no-por wins when both
    // appear (sweep scripts append overrides).
    if (args.has("no-por"))
        opt.engine.por = false;
    else if (args.has("por"))
        opt.engine.por = true;

    if (args.has("max-states")) {
        const std::int64_t n = args.getInt("max-states", 0);
        if (n < 1) {
            std::fprintf(stderr,
                         "--max-states %lld out of range (want >= 1)\n",
                         static_cast<long long>(n));
            std::exit(2);
        }
        opt.engine.maxStates = static_cast<std::uint64_t>(n);
        opt.userCapped = true;
    }

    const std::int64_t expect = args.getInt("expect-states", 0);
    if (expect > 0)
        opt.engine.expectedStates =
            static_cast<std::uint64_t>(expect);

    if (args.has("max-seconds")) {
        const std::string raw = args.get("max-seconds", "");
        char *end = nullptr;
        const double secs = std::strtod(raw.c_str(), &end);
        if (raw.empty() || end == raw.c_str() || *end != '\0' ||
            !(secs > 0)) {
            std::fprintf(stderr,
                         "--max-seconds '%s' out of range (want a "
                         "positive number of seconds)\n",
                         raw.c_str());
            std::exit(2);
        }
        opt.engine.maxSeconds = secs;
        opt.userBudgeted = true;
    }

    if (args.has("max-rss-mb")) {
        const std::int64_t mb = args.getInt("max-rss-mb", 0);
        if (mb < 1) {
            std::fprintf(stderr,
                         "--max-rss-mb %lld out of range (want >= 1)\n",
                         static_cast<long long>(mb));
            std::exit(2);
        }
        opt.engine.maxRssBytes =
            static_cast<std::uint64_t>(mb) * 1024 * 1024;
        opt.userBudgeted = true;
    }

    // One process-wide token shared by every standardOptions call:
    // re-parsing (sweep harnesses build several sessions) must not
    // orphan the token the signal handler is bound to.  The bridge
    // is first-install-wins, so a front-end that armed its own token
    // earlier (cxl_checkd's drain) keeps it — the returned token is
    // whichever one the handler actually trips.
    static const CancelToken process_cancel = CancelToken::create();
    opt.engine.cancel = installSignalCancel(process_cancel);

    if (args.has("json")) {
        opt.json = true;
        opt.jsonPath = args.get("json", "1");
        // A bare `--json` parses as the value "1"; fall back to the
        // harness's BENCH_*.json default.
        if (opt.jsonPath == "1")
            opt.jsonPath = defaultJsonPath ? defaultJsonPath : "";
        if (opt.jsonPath.empty()) {
            std::fprintf(stderr,
                         "--json needs a path for this harness\n");
            std::exit(2);
        }
    }
    return opt;
}

} // namespace cxl::api
