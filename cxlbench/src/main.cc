/**
 * @file
 * cxlbench: the checker's benchmark program.
 *
 *   cxlbench --workload nosym3|sym3|served --seed N --seconds S --trace 0|1
 *
 * Prints one JSON object of raw measurements on stdout.  Exit 2 on a
 * usage error, 3 when the traced replay disagrees with the engine,
 * 1 on any other failure.  Normally driven through run.py, which
 * builds this program, gates correctness and prints the metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"
#include "replay.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "cxlbench: %s\nusage: cxlbench --workload "
                 "nosym3|sym3|served --seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    cxlbench::RunArgs args;
    args.processStart = cxlbench::Clock::now();
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            return usage(("bad number for " + flag).c_str());
    }
    if (!(args.seconds > 0))
        return usage("--seconds must be positive");

    try {
        std::string out;
        if (workload == "nosym3" || workload == "sym3")
            out = cxlbench::runExploreWorkload(workload, args);
        else if (workload == "served")
            out = cxlbench::runServedWorkload(args);
        else
            return usage(("unknown workload '" + workload + "'").c_str());
        std::printf("%s\n", out.c_str());
        return 0;
    } catch (const cxlbench::ReplayMismatch &e) {
        std::fprintf(stderr, "cxlbench: %s\n", e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cxlbench: %s\n", e.what());
        return 1;
    }
}
