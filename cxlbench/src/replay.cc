#include "replay.hh"

#include <algorithm>
#include <utility>

#include "bench.hh"
#include "checker/state_store.hh"
#include "support/json.hh"

namespace cxlbench
{

using cxl::StateStore;
using cxl::SystemState;

namespace
{

/**
 * Frontier nodes expanded per timed chunk.  Large enough that the
 * nine clock reads per chunk are noise next to ~300 successors of
 * work, small enough that the chunk's states stay cache-resident
 * between layers (as they do in the engine's per-node loop).
 */
constexpr std::size_t kChunkNodes = 64;

/** Accumulates the time since the previous lap into a layer. */
class LapTimer
{
  public:
    LapTimer() : last_(Clock::now()) {}

    void
    lap(double &into)
    {
        const Clock::time_point now = Clock::now();
        into += secondsBetween(last_, now);
        last_ = now;
    }

    /** Restart without charging anyone (untimed bookkeeping). */
    void skip() { last_ = Clock::now(); }

  private:
    Clock::time_point last_;
};

} // namespace

LayerSeconds &
LayerSeconds::operator+=(const LayerSeconds &o)
{
    fetch += o.fetch;
    generate += o.generate;
    tidCanon += o.tidCanon;
    symCanon += o.symCanon;
    hash += o.hash;
    insert += o.insert;
    invariants += o.invariants;
    seal += o.seal;
    return *this;
}

std::string
LayerSeconds::renderJson() const
{
    cxl::JsonObject o;
    o.raw("fetch", fullNum(fetch))
        .raw("generate", fullNum(generate))
        .raw("tid_canon", fullNum(tidCanon))
        .raw("sym_canon", fullNum(symCanon))
        .raw("hash", fullNum(hash))
        .raw("insert", fullNum(insert))
        .raw("invariants", fullNum(invariants))
        .raw("seal", fullNum(seal));
    return o.render();
}

std::string
ReplayResult::renderJson() const
{
    std::vector<std::string> lv;
    lv.reserve(levels.size());
    for (const LevelTrace &l : levels) {
        cxl::JsonObject o;
        o.num("depth", static_cast<std::uint64_t>(l.depth))
            .num("frontier", l.frontier)
            .num("successors", l.successors)
            .num("inserted", l.inserted)
            .raw("layers_s", l.layers.renderJson());
        lv.push_back(o.render());
    }
    cxl::JsonObject o;
    o.num("states", states)
        .num("transitions", transitions)
        .num("diameter", static_cast<std::uint64_t>(diameter))
        .num("violations", violations)
        .num("generate_calls", generateCalls)
        .num("sym_canon_calls", symCanonCalls)
        .num("inserted", inserted)
        .num("invariant_evals", invariantEvals)
        .num("probe_collisions", probeCollisions)
        .raw("wall_s", fullNum(wallSeconds))
        .raw("layers_s", layers.renderJson())
        .raw("levels", cxl::JsonObject::array(lv));
    return o.render();
}

ReplayResult
replayBfs(const cxl::RuleSet &rules, const cxl::Scenario &scenario,
          const cxl::InvariantSet &invariants, bool symmetry,
          cxl::StoreKind store_kind)
{
    const Clock::time_point start = Clock::now();
    ReplayResult out;

    // The same store the engine builds for this store kind.
    StateStore store(cxl::StoreConfig{
        1 << 16,
        cxl::storeKindCompact(store_kind) ? cxl::StoreMode::Compact
                                          : cxl::StoreMode::Full,
        cxl::storeKindMmap(store_kind) ? cxl::StoreBackend::Mmap
                                       : cxl::StoreBackend::InRam,
        std::string(), 0});
    const cxl::Context ctx{&scenario};

    SystemState init = scenario.initial;
    init.canonicaliseTids();
    if (symmetry)
        init = init.deviceCanonical(true, true);
    const std::uint32_t init_id =
        store.insert(init, StateStore::kNoParent, 0, 0).first;
    ++out.invariantEvals;
    if (invariants.firstFailure(init, ctx))
        ++out.violations;

    std::vector<std::uint32_t> frontier{init_id}, next;
    store.sealLevel();

    std::vector<SystemState> nodes(kChunkNodes);
    std::vector<std::vector<cxl::RuleSet::Successor>> succs(kChunkNodes);
    std::vector<std::uint64_t> hashes;
    std::vector<StateStore::BatchItem> batch;

    std::uint32_t depth = 0;
    while (!frontier.empty() && out.violations == 0) {
        out.diameter = depth;
        LevelTrace level;
        level.depth = depth;
        level.frontier = frontier.size();
        LayerSeconds &t = level.layers;
        next.clear();

        for (std::size_t begin = 0; begin < frontier.size();
             begin += kChunkNodes) {
            const std::size_t n =
                std::min(kChunkNodes, frontier.size() - begin);
            LapTimer timer;

            for (std::size_t k = 0; k < n; ++k)
                store.stateInto(frontier[begin + k], nodes[k]);
            timer.lap(t.fetch);

            std::size_t total = 0;
            for (std::size_t k = 0; k < n; ++k) {
                rules.successorsInto(nodes[k], scenario, false,
                                     succs[k]);
                total += succs[k].size();
            }
            timer.lap(t.generate);

            for (std::size_t k = 0; k < n; ++k)
                for (auto &s : succs[k])
                    s.state.canonicaliseTids();
            timer.lap(t.tidCanon);

            if (symmetry) {
                for (std::size_t k = 0; k < n; ++k)
                    for (auto &s : succs[k])
                        s.state = s.state.deviceCanonical(true, true);
                timer.lap(t.symCanon);
            }

            hashes.clear();
            for (std::size_t k = 0; k < n; ++k)
                for (const auto &s : succs[k])
                    hashes.push_back(s.state.hash());
            timer.lap(t.hash);

            // Staging the batch is the explorer's own work; it lands
            // in explorer self time (wall minus the layers).
            batch.clear();
            std::size_t j = 0;
            for (std::size_t k = 0; k < n; ++k) {
                for (auto &s : succs[k]) {
                    StateStore::BatchItem &item = batch.emplace_back();
                    item.state = std::move(s.state);
                    item.hash = hashes[j++];
                    item.parent = frontier[begin + k];
                    item.depth = depth + 1;
                    item.rule = s.rule->id;
                    if (s.overflow)
                        ++out.violations;
                }
            }
            timer.skip();

            store.insertBatch(batch.data(), batch.size());
            timer.lap(t.insert);

            std::uint64_t fresh = 0;
            for (const StateStore::BatchItem &item : batch) {
                if (!item.inserted)
                    continue;
                ++fresh;
                if (invariants.firstFailure(item.state, ctx))
                    ++out.violations;
            }
            timer.lap(t.invariants);

            for (const StateStore::BatchItem &item : batch)
                if (item.inserted)
                    next.push_back(item.id);

            out.generateCalls += n;
            if (symmetry)
                out.symCanonCalls += total;
            level.successors += total;
            level.inserted += fresh;
        }

        LapTimer seal_timer;
        store.sealLevel();
        seal_timer.lap(t.seal);

        out.transitions += level.successors;
        out.inserted += level.inserted;
        out.invariantEvals += level.inserted;
        out.layers += t;
        out.levels.push_back(level);
        frontier.swap(next);
        ++depth;
    }

    out.states = store.size();
    out.probeCollisions = store.probeCollisions();
    out.wallSeconds = secondsSince(start);
    return out;
}

} // namespace cxlbench
