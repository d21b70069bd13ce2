/**
 * @file
 * The exploration workloads: complete free-run explorations through
 * CheckSession (BFS schedule, POR off, ProtocolConfig::correct()).
 *
 *  - nosym3: 3 devices, symmetry off, `ram` store, 1 thread.  All the
 *    work is in the per-state kernel and none in sym-canon, so it is
 *    the no-change control for any symmetry work.
 *  - sym3: 3 devices, symmetry on, `mmap-compact` store, 2 threads:
 *    the only parallel workload, and the one that seals levels out
 *    of core.
 *
 * Before the timed loop one exploration runs untimed, so the timed
 * ones find the allocator's arenas and the page cache warm.  Every
 * timed exploration after the first runs in a session set up just
 * before it, which is also a set-up sample.
 */

#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "replay.hh"
#include "support/json.hh"
#include "support/resource.hh"

namespace cxlbench
{

namespace
{

struct ExploreSpec {
    int devices;
    cxl::SymmetryMode symmetry;
    cxl::StoreKind store;
    std::size_t threads;
};

ExploreSpec
specFor(const std::string &name)
{
    if (name == "nosym3")
        return {3, cxl::SymmetryMode::Off, cxl::StoreKind::InRam, 1};
    if (name == "sym3")
        return {3, cxl::SymmetryMode::On, cxl::StoreKind::MmapCompact, 2};
    throw std::invalid_argument("no exploration workload " + name);
}

/** Set-ups timed before the first exploration; each timed
 * exploration adds one more (the median is reported). */
constexpr int kSetups = 5;

cxl::EngineOptions
engineFor(const ExploreSpec &spec)
{
    cxl::EngineOptions e;
    e.threads = spec.threads;
    e.symmetry = spec.symmetry;
    e.store = spec.store;
    e.schedule = cxl::Schedule::Bfs;
    e.por = false;
    return e;
}

cxl::CheckRequest
requestFor(const ExploreSpec &spec)
{
    cxl::CheckRequest req;
    req.scenario = "free-run";
    req.devices = spec.devices;
    req.config = cxl::ProtocolConfig::correct();
    req.engine = engineFor(spec);
    return req;
}

std::string
runJson(const cxl::CheckResult &r, double call_seconds)
{
    cxl::JsonObject o;
    o.str("verdict", r.verdictText())
        .num("states", r.states)
        .num("transitions", r.transitions)
        .num("diameter", static_cast<std::uint64_t>(r.diameter))
        .raw("seconds", fullNum(r.seconds))
        .raw("call_s", fullNum(call_seconds))
        .num("threads", static_cast<std::uint64_t>(r.threads))
        .num("probe_collisions", r.probeCollisions)
        .num("mapped_bytes", r.mappedFileBytes)
        .num("file_bytes", r.storeFileBytes);
    return o.render();
}

/**
 * One set-up sample, counted from @p t0: a fresh session and its
 * model (the first ruleSet/invariantSet call builds it).
 */
std::unique_ptr<cxl::CheckSession>
setUp(const ExploreSpec &spec, Clock::time_point t0,
      std::vector<double> &setup, std::vector<double> &modelBuild)
{
    const cxl::ProtocolConfig config = cxl::ProtocolConfig::correct();
    auto session = std::make_unique<cxl::CheckSession>(engineFor(spec));
    const Clock::time_point m0 = Clock::now();
    session->ruleSet(config, spec.devices);
    session->invariantSet(config, spec.devices);
    const Clock::time_point t1 = Clock::now();
    modelBuild.push_back(secondsBetween(m0, t1));
    setup.push_back(secondsBetween(t0, t1));
    return session;
}

} // namespace

std::string
runExploreWorkload(const std::string &name, const RunArgs &args)
{
    const ExploreSpec spec = specFor(name);
    const cxl::ProtocolConfig config = cxl::ProtocolConfig::correct();

    // Set-up samples, the first counted from process start.  More
    // follow between the timed explorations, so that the median
    // spans the whole run, not one instant of it.
    std::vector<double> setup, model_build;
    std::unique_ptr<cxl::CheckSession> session =
        setUp(spec, args.processStart, setup, model_build);
    for (int i = 1; i < kSetups; ++i)
        session = setUp(spec, Clock::now(), setup, model_build);

    const cxl::CheckRequest req = requestFor(spec);
    cxl::JsonObject out;
    out.str("workload", name);

    if (!args.trace) {
        // Complete explorations while the next one fits the span; a
        // single-threaded engine visits every CPU in turn.
        std::vector<std::string> runs;
        std::optional<CpuRotation> rotation;
        if (spec.threads == 1)
            rotation.emplace();
        const Clock::time_point w0 = Clock::now();
        const cxl::CheckResult warm = session->run(req);
        out.raw("warmup", runJson(warm, secondsSince(w0)));
        const Clock::time_point t0 = Clock::now();
        do {
            if (!runs.empty())
                session = setUp(spec, Clock::now(), setup, model_build);
            if (rotation)
                rotation->next();
            const Clock::time_point c0 = Clock::now();
            const cxl::CheckResult r = session->run(req);
            runs.push_back(runJson(r, secondsSince(c0)));
        } while (anotherFits(secondsSince(t0), runs.size(), args.seconds));
        out.raw("timed_s", fullNum(secondsSince(t0)))
            .raw("runs", cxl::JsonObject::array(runs));
    } else {
        // One untraced engine run, then the traced replay of the
        // same exploration, which must reproduce its counts.
        const Clock::time_point c0 = Clock::now();
        const cxl::CheckResult r = session->run(req);
        const double call = secondsSince(c0);
        const Clock::time_point r0 = Clock::now();
        const std::string rendered = r.renderJson();
        const double render = secondsSince(r0);

        const ReplayResult rep = replayBfs(
            session->ruleSet(config, spec.devices),
            cxl::Scenario::freeRunScenario(spec.devices),
            session->invariantSet(config, spec.devices),
            spec.symmetry == cxl::SymmetryMode::On, spec.store);

        out.raw("runs", cxl::JsonObject::array({runJson(r, call)}))
            .raw("render_s", fullNum(render))
            .num("model_builds",
                 static_cast<std::uint64_t>(
                     session->modelCacheStats().size()))
            .raw("replay", rep.renderJson());

        if (rep.states != r.states || rep.transitions != r.transitions ||
            rep.diameter != r.diameter ||
            (rep.violations != 0) != !r.holds()) {
            std::fprintf(stderr, "%s\n", out.render().c_str());
            throw ReplayMismatch(
                "traced replay diverged from the engine run: replay " +
                std::to_string(rep.states) + " states / " +
                std::to_string(rep.transitions) +
                " transitions / diameter " +
                std::to_string(rep.diameter) + " / " +
                std::to_string(rep.violations) +
                " violations, engine " + r.verdictText());
        }
    }
    out.raw("setup_s", numArray(setup))
        .raw("model_build_s", numArray(model_build))
        .num("peak_rss_bytes", cxl::peakRssBytes());
    return out.render();
}

} // namespace cxlbench
