/**
 * @file
 * The served workload: an in-process serve::Server (1 worker, engine
 * threads=1) on a Unix socket, driven by 1 closed-loop client (it
 * sends its next request only after the previous answer arrived)
 * over a seeded stream of inline fuzz cases.
 *
 * The stream holds kUnique cases from fuzz::ScenarioGen (2-3 devices,
 * free-run cases capped at 20,000 states) in kSlices slices of equal
 * class make-up, each slice drawn by its own generator.  Within a
 * slice each case is sent three times in a seeded order, so the
 * result cache's read path and its miss-and-insert path both run.
 * Per-check fixed costs (model build, store construction, render,
 * framing, cache) dominate here, not the per-state kernel.
 *
 * A pass replays one slice against a freshly started server, the
 * slices in turn, so a run times many short passes of like work and
 * its medians cover every slice of the seed's cases.  A pass, server
 * threads and client alike, is pinned to one CPU, the next one in
 * turn: the client and the server hand each request to each other on
 * that CPU instead of waking threads parked on other, possibly idle,
 * vCPUs, whose wake-up latency on a shared host swamps a
 * sub-millisecond check.  Every case is first run offline through a
 * single-thread CheckSession; each served verdict line must equal
 * that answer.  The same offline runs yield the api-layer timings.
 */

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <memory>
#include <thread>
#include <unistd.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench.hh"
#include "fuzz/gen.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "support/json.hh"
#include "support/json_parse.hh"
#include "support/resource.hh"

namespace cxlbench
{

namespace
{

constexpr std::size_t kClients = 1;
constexpr std::size_t kWorkers = 1;
constexpr std::uint64_t kFreeRunCap = 20000;

/**
 * Stream composition.  A case's class is fixed by its device count,
 * its mode and whether the offline run hit the state cap; capped
 * runs are never cached, so they dominate a pass's cost.  Filling a
 * fixed quota per class (near the generator's natural mix) keeps the
 * work of a pass the same from seed to seed, while the cases within
 * a class stay whatever the seed draws.
 *
 * Each slice draws from its own generator, seeded from the run's
 * seed.  ScenarioGen mutates earlier cases, so the cases of one
 * generator share configs, and with them model count and memory; ten
 * independent draws keep one run's figures from hanging on one.
 */
enum CaseClass : std::size_t {
    Program2,
    Program3,
    Free2,   ///< 2-device free runs (the rare capped one included)
    Free3,   ///< 3-device free runs ending below the cap
    Capped3, ///< 3-device free runs stopped by the cap
    kClasses
};
/** One pass serves one slice; a run serves every slice at least once. */
constexpr std::size_t kSlices = 10;
/** Cases per slice and class; even slices take the first row, odd
 * ones the second, so every slice holds kPerSlice cases. */
constexpr std::size_t kSliceQuota[2][kClasses] = {{18, 18, 8, 2, 4},
                                                  {18, 18, 7, 3, 4}};
constexpr std::size_t kPerSlice = 50;
static_assert(kSliceQuota[0][0] + kSliceQuota[0][1] + kSliceQuota[0][2] +
                      kSliceQuota[0][3] + kSliceQuota[0][4] ==
                  kPerSlice &&
              kSliceQuota[1][0] + kSliceQuota[1][1] + kSliceQuota[1][2] +
                      kSliceQuota[1][3] + kSliceQuota[1][4] ==
                  kPerSlice);
constexpr std::size_t kUnique = kSlices * kPerSlice;
/**
 * Each case of a slice is sent kSends times, so two thirds of the
 * requests repeat an earlier case and about 61% hit the cache (capped
 * answers are never cached).  With two sends the hits came to 46%,
 * and the median request fell in the thin gap between fast hits and
 * the cheapest misses, where it moved 15% with two percentiles.
 */
constexpr std::size_t kSends = 3;
constexpr std::size_t kRequests = kSends * kPerSlice;
/** A run's p99 needs 10 requests beyond it. */
static_assert(kSlices * kRequests >= 1000);
/** Give up (a generator change broke the mix) after this many draws. */
constexpr std::size_t kMaxDraws = 20 * kPerSlice;

CaseClass
classOf(const cxl::fuzz::FuzzCase &c, bool capped)
{
    if (!c.freeRun)
        return c.devices == 2 ? Program2 : Program3;
    if (c.devices == 2)
        return Free2;
    return capped ? Capped3 : Free3;
}

/** The seeded request stream and its offline answers, plus the
 * api-layer timings of the offline runs. */
struct Stream {
    std::vector<cxl::fuzz::FuzzCase> unique;
    std::vector<std::string> verdict; ///< offline answer per unique case
    /** Per slice, request -> unique case. */
    std::vector<std::vector<std::size_t>> slices;
    std::size_t drawn = 0;            ///< generator draws used
    std::vector<std::string> errors;  ///< offline runs that threw

    /** Count, offline states and engine seconds of the accepted
     * cases, per class. */
    std::uint64_t classUnique[kClasses] = {};
    std::uint64_t classStates[kClasses] = {};
    double classSeconds[kClasses] = {};

    std::vector<double> modelBuild, sessionOverhead, render;
    std::uint64_t modelBuilds = 0;
    double engineSeconds = 0;
};

/** Run @p c offline (single-thread CheckSession); nullopt if it threw. */
std::optional<cxl::CheckResult>
runOffline(cxl::CheckSession &session, const cxl::fuzz::FuzzCase &c,
           Stream &s)
{
    cxl::CheckRequest req = c.toRequest();
    cxl::EngineOptions e = session.defaults();
    // toRequest() leaves the cap to the caller; the server and the
    // fuzz oracle both apply the case's own.
    if (c.maxStates != 0)
        e.maxStates = c.maxStates;
    req.engine = e;
    try {
        const std::size_t models = session.modelCacheStats().size();
        const Clock::time_point m0 = Clock::now();
        session.ruleSet(c.config, c.devices);
        session.invariantSet(c.config, c.devices);
        const double build = secondsSince(m0);
        if (session.modelCacheStats().size() != models) {
            s.modelBuild.push_back(build);
            ++s.modelBuilds;
        }
        const Clock::time_point c0 = Clock::now();
        cxl::CheckResult r = session.run(req);
        const double call = secondsSince(c0);
        const Clock::time_point r0 = Clock::now();
        const std::string json = r.renderJson();
        s.render.push_back(secondsSince(r0));
        s.sessionOverhead.push_back(call - r.seconds);
        s.engineSeconds += r.seconds;
        return r;
    } catch (const std::exception &ex) {
        s.errors.push_back(c.name() + ": " + ex.what());
        return std::nullopt;
    }
}

Stream
makeStream(std::uint64_t seed)
{
    cxl::EngineOptions defaults;
    defaults.threads = 1;
    cxl::CheckSession session(defaults);

    Stream s;
    s.slices.resize(kSlices);
    std::set<std::string> seen;
    cxl::fuzz::Rng seeds(seed);
    cxl::fuzz::Rng pick(seed ^ 0x5eedf00dull);
    for (std::size_t k = 0; k < kSlices; ++k) {
        cxl::fuzz::GenOptions gopt;
        gopt.seed = seeds.next();
        gopt.minDevices = 2;
        gopt.maxDevices = 3;
        gopt.freeRunCap = kFreeRunCap;
        cxl::fuzz::ScenarioGen gen(gopt);

        const std::size_t *quota = kSliceQuota[k % 2];
        std::size_t filled[kClasses] = {};
        std::vector<std::size_t> &slice = s.slices[k];
        for (std::size_t draws = 0; slice.size() < kRequests; ++draws) {
            if (draws == kMaxDraws)
                throw std::runtime_error(
                    "served stream: class quotas unmet after " +
                    std::to_string(kMaxDraws) + " generated cases");
            ++s.drawn;
            cxl::fuzz::FuzzCase c = gen.next();
            if (!seen.insert(c.name()).second)
                continue;
            // A program case's class is known without running it.
            const CaseClass known = classOf(c, false);
            if (!c.freeRun && filled[known] == quota[known])
                continue;
            const std::optional<cxl::CheckResult> r =
                runOffline(session, c, s);
            if (!r)
                continue;
            const CaseClass cls = classOf(
                c, r->verdict == cxl::CheckResult::Verdict::Incomplete);
            if (filled[cls] == quota[cls])
                continue;
            ++filled[cls];
            s.classUnique[cls] += 1;
            s.classStates[cls] += r->states;
            s.classSeconds[cls] += r->seconds;
            slice.insert(slice.end(), kSends, s.unique.size());
            s.verdict.push_back(r->verdictText());
            s.unique.push_back(std::move(c));
        }
        for (std::size_t i = slice.size() - 1; i > 0; --i)
            std::swap(slice[i],
                      slice[pick.below(static_cast<std::uint32_t>(i + 1))]);
    }
    return s;
}

/** The request the server resolves exactly like the offline run:
 * engine knobs left to the server (threads=1), state cap taken from
 * the case. */
cxl::serve::Request
wireRequest(const cxl::fuzz::FuzzCase &c, std::size_t index)
{
    cxl::serve::Request r;
    r.id = "r" + std::to_string(index);
    r.inlineCase = c;
    r.devices = c.devices;
    r.progress = false;
    return r;
}

cxl::serve::ServerOptions
serverOptions(const std::string &socket)
{
    cxl::serve::ServerOptions opt;
    opt.socketPath = socket;
    opt.workers = kWorkers;
    // Room for a pass's whole working set, so every repeat of a
    // cacheable answer hits, whatever the seeded order.
    opt.cacheEntries = kRequests;
    opt.engine.threads = 1;
    return opt;
}

/**
 * Drain @p server, ending the process (exit 4) if that hangs.
 *
 * Server::beginDrain sets the draining flag and notifies the workers'
 * condition variable without holding its mutex, so a worker that is
 * between its predicate check and its wait misses the wake-up and
 * drain() never returns (a start() followed at once by drain() hits
 * this often).  The benchmark drains only after a pass, lets the
 * workers settle into their wait first, and turns a hang into a loud
 * failure instead of a stalled run.
 */
void
drainOrDie(cxl::serve::Server &server)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::thread watchdog([&] {
        std::unique_lock<std::mutex> lock(m);
        if (!cv.wait_for(lock, std::chrono::seconds(20),
                         [&] { return done; })) {
            std::fprintf(stderr, "cxlbench: serve::Server::drain() hung "
                                 "(a worker missed the drain wake-up)\n");
            std::_Exit(4);
        }
    });
    server.drain();
    {
        const std::lock_guard<std::mutex> lock(m);
        done = true;
    }
    cv.notify_one();
    watchdog.join();
}

/**
 * Restart the process's resident high-water mark from its current
 * resident size (Linux: /proc/self/clear_refs, "5"), so a later
 * highWaterRssBytes() covers only what runs after this call.
 */
void
resetHighWaterRss()
{
#ifdef __GLIBC__
    // Hand freed heap back first, or it stays resident and sets the
    // new mark.
    malloc_trim(0);
#endif
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** VmHWM from /proc/self/status: the resident high-water mark since
 * the last resetHighWaterRss(), or since the process began. */
std::uint64_t
highWaterRssBytes()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return cxl::peakRssBytes();
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb ? kb * 1024 : cxl::peakRssBytes();
}

/** One answered request, as its client saw it. */
struct Span {
    double latency = 0; ///< send to result, client side
    bool ok = false;
    bool cached = false;
    bool matches = false; ///< verdict equals the offline reference
    std::string error;
    std::string resultJson; ///< dropped once parsed
    std::uint64_t states = 0;   ///< from the payload
    double payloadSeconds = 0;  ///< engine seconds in the payload
};

} // namespace

std::string
runServedWorkload(const RunArgs &args)
{
#ifdef __GLIBC__
    // One malloc arena for every thread.  Each pass starts fresh
    // server threads, and glibc hands each thread one of its arenas,
    // whose retained free memory then depends on which passes used it
    // before: a pass's peak RSS ranged from 21 to 46 MB for the same
    // work, against 18-21 MB with one arena.  With one worker and one
    // client the arena lock is barely contended.
    mallopt(M_ARENA_MAX, 1);
#endif

    // Relative to the working directory: Unix socket paths are
    // limited to ~107 bytes, however deep the checkout sits.
    const std::string socket =
        "cxlbench-" + std::to_string(::getpid()) + ".sock";

    // Set-up: construct a server until it answers a stats request
    // (accept thread and a worker both running); once per pass.
    std::vector<double> setup;
    auto startServer = [&] {
        const Clock::time_point t0 = Clock::now();
        auto server = std::make_unique<cxl::serve::Server>(
            serverOptions(socket));
        server->start();
        std::string error;
        if (cxl::serve::fetchStats(socket, error).empty())
            throw std::runtime_error("server not ready: " + error);
        setup.push_back(secondsSince(t0));
        return server;
    };

    // Inputs and their offline answers, outside every timed span.
    const Stream stream = makeStream(args.seed);
    std::vector<std::vector<cxl::serve::Request>> requests(kSlices);
    for (std::size_t k = 0; k < kSlices; ++k)
        for (std::size_t i = 0; i < kRequests; ++i)
            requests[k].push_back(
                wireRequest(stream.unique[stream.slices[k][i]], i));

    std::vector<Span> spans;
    std::vector<std::string> passes;
    std::uint64_t serverErrors = 0, serverRejected = 0;
    CpuRotation rotation;
    const Clock::time_point t0 = Clock::now();
    do {
        const std::size_t slice = passes.size() % kSlices;
        const std::vector<std::size_t> &caseOf = stream.slices[slice];
        // The server's threads and the clients inherit this pin.
        rotation.next();
        // Peak memory is this server's: neither the offline reference
        // session nor an earlier pass may set it.
        resetHighWaterRss();
        std::unique_ptr<cxl::serve::Server> server = startServer();
        std::vector<Span> pass(kRequests);
        std::atomic<std::size_t> next{0};
        auto client = [&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= kRequests)
                    return;
                const Clock::time_point c0 = Clock::now();
                cxl::serve::ClientResult cr =
                    cxl::serve::requestCheck(socket, requests[slice][i]);
                Span &sp = pass[i];
                sp.latency = secondsSince(c0);
                sp.ok = cr.ok;
                sp.cached = cr.cached;
                sp.error = std::move(cr.error);
                sp.matches =
                    cr.ok &&
                    cr.payload.verdictLine == stream.verdict[caseOf[i]];
                sp.resultJson = std::move(cr.payload.resultJson);
            }
        };
        const Clock::time_point p0 = Clock::now();
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c)
            clients.emplace_back(client);
        for (std::thread &t : clients)
            t.join();
        const double wall = secondsSince(p0);
        const std::uint64_t peakRss = highWaterRssBytes();

        const cxl::serve::ServerStats st = server->stats();
        serverErrors += st.errors;
        serverRejected += st.rejected;
        drainOrDie(*server);

        std::uint64_t states = 0, hits = 0;
        for (Span &sp : pass) {
            hits += sp.cached;
            if (sp.ok) {
                const cxl::JsonValue res = cxl::parseJson(sp.resultJson);
                sp.states = static_cast<std::uint64_t>(res.getNum("states"));
                sp.payloadSeconds = res.getNum("seconds");
                states += sp.states;
            }
            sp.resultJson.clear();
            spans.push_back(std::move(sp));
        }
        cxl::JsonObject p;
        p.raw("wall_s", fullNum(wall))
            .num("requests", static_cast<std::uint64_t>(kRequests))
            .num("states", states)
            .num("hits", hits)
            .num("server_errors", st.errors)
            .num("server_rejected", st.rejected)
            .num("slice", static_cast<std::uint64_t>(slice))
            .num("peak_rss_bytes", peakRss);
        passes.push_back(p.render());
    } while (passes.size() < kSlices ||
             anotherFits(secondsSince(t0), passes.size(), args.seconds));
    const double timed = secondsSince(t0);

    // Per-request spans, flattened into parallel arrays.
    std::vector<double> latency, payloadSeconds;
    std::vector<std::uint64_t> cached, ok;
    std::vector<std::string> failures;
    for (const Span &sp : spans) {
        latency.push_back(sp.latency);
        cached.push_back(sp.cached);
        const bool good = sp.ok && sp.matches;
        ok.push_back(good);
        payloadSeconds.push_back(sp.payloadSeconds);
        if (!good && failures.size() < 5)
            failures.push_back(cxl::JsonObject::quote(
                sp.ok ? "verdict differs from the offline reference"
                      : sp.error));
    }
    std::vector<std::string> refErrors;
    for (const std::string &e : stream.errors)
        refErrors.push_back(cxl::JsonObject::quote(e));

    static const char *const kClassNames[kClasses] = {
        "program2", "program3", "free2", "free3", "capped3"};
    cxl::JsonObject classes;
    for (std::size_t c = 0; c < kClasses; ++c) {
        classes.raw(kClassNames[c],
                    cxl::JsonObject()
                        .num("unique", stream.classUnique[c])
                        .num("offline_states", stream.classStates[c])
                        .raw("offline_s", fullNum(stream.classSeconds[c]))
                        .render());
    }

    cxl::JsonObject api;
    api.raw("model_build_s", numArray(stream.modelBuild))
        .num("model_builds", stream.modelBuilds)
        .raw("session_overhead_s", numArray(stream.sessionOverhead))
        .raw("render_s", numArray(stream.render))
        .raw("engine_s", fullNum(stream.engineSeconds));

    cxl::JsonObject out;
    out.str("workload", "served")
        .num("requests_per_pass", static_cast<std::uint64_t>(kRequests))
        .num("unique_cases", static_cast<std::uint64_t>(stream.unique.size()))
        .num("generator_draws", static_cast<std::uint64_t>(stream.drawn))
        .raw("classes", classes.render())
        .num("clients", static_cast<std::uint64_t>(kClients))
        .num("workers", static_cast<std::uint64_t>(kWorkers))
        .raw("setup_s", numArray(setup))
        .raw("timed_s", fullNum(timed))
        .raw("passes", cxl::JsonObject::array(passes))
        .raw("latency_s", numArray(latency))
        .raw("payload_seconds", numArray(payloadSeconds))
        .raw("cached", numArray(cached))
        .raw("ok", numArray(ok))
        .raw("failure_examples", cxl::JsonObject::array(failures))
        .raw("reference_errors", cxl::JsonObject::array(refErrors))
        .num("server_errors", serverErrors)
        .num("server_rejected", serverRejected)
        .raw("api", api.render());
    return out.render();
}

} // namespace cxlbench
