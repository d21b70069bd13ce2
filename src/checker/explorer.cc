#include "checker/explorer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "checker/por.hh"
#include "checker/progress.hh"
#include "support/thread_pool.hh"

namespace cxl
{
namespace
{

/**
 * Successors a worker accumulates before flushing them into the store
 * in one batched, shard-grouped pass.  Bounds both the batch buffer
 * and, together with the soft cap margin, the maxStates overshoot.
 */
constexpr std::size_t kFlushBatch = 512;

/**
 * A violation observed during one parallel level.  Candidates are
 * collected per worker and the winner is selected at the level
 * barrier by a thread-count-independent key, so the reported verdict
 * is deterministic.
 */
struct Candidate {
    Violation::Kind kind;
    const Conjunct *conjunct; ///< non-null only for Kind::Conjunct
    std::uint32_t idx;
    std::uint32_t depth;
    std::uint64_t stateHash;
    // Overflow only: the violating edge itself (rule, source state),
    // so the reported trace can end with the actual overflowing rule
    // even when the target state was already known.
    std::uint16_t edgeRule = 0;
    std::uint32_t edgeParent = StateStore::kNoParent;
    std::uint64_t parentHash = 0;
};

/**
 * Deterministic candidate order: shallowest first, then by state
 * fingerprint, then overflow before conjunct (matching the sequential
 * per-state check order), then by the violating edge (rule id, source
 * state hash) so racing overflow edges into one target resolve the
 * same way for every thread count.
 */
bool
candidateLess(const Candidate &a, const Candidate &b)
{
    auto rank = [](Violation::Kind k) {
        switch (k) {
          case Violation::Kind::Overflow: return 0;
          case Violation::Kind::Conjunct: return 1;
          case Violation::Kind::Deadlock: return 2;
        }
        return 3;
    };
    return std::make_tuple(a.depth, a.stateHash, rank(a.kind),
                           a.edgeRule, a.parentHash) <
           std::make_tuple(b.depth, b.stateHash, rank(b.kind),
                           b.edgeRule, b.parentHash);
}

/** An overflow edge waiting for its batch flush to learn its id. */
struct PendingOverflow {
    std::uint32_t batchIndex;
    std::uint64_t parentHash;
};

/**
 * POR: one generated edge, recorded compactly (12 bytes, not the
 * 96-byte mask) so a whole BFS level's edges fit in scratch at
 * 4-device scale.  The edge's sleep-mask contribution is re-derived
 * at the quiescent barrier from the source state's frontier mask,
 * the within-node fired order (edges of one node are contiguous in a
 * worker's log, in ascending rule order) and the recorded
 * canonicalisation permutation.
 */
struct MaskEdge {
    std::uint32_t id;      ///< target store id (filled post-flush)
    std::uint32_t nodePos; ///< source position in the frontier
    std::uint16_t rule;
    std::uint8_t permKey;  ///< PorContext::permKey of the canon perm
};

/** Per-successor metadata staged alongside the insert batch. */
struct EdgeMeta {
    std::uint32_t nodePos;
    std::uint8_t permKey;
};

/** Per-worker scratch, reused across levels so the hot path stays
 * allocation-free once capacities have warmed up. */
struct WorkerScratch {
    std::vector<RuleSet::Successor> succs;
    std::vector<StateStore::BatchItem> batch;
    std::vector<PendingOverflow> overflows;
    std::vector<std::uint32_t> next;
    std::vector<Candidate> candidates;
    std::vector<std::uint64_t> ruleFires;
    std::uint64_t transitions = 0;

    // Partial-order reduction bookkeeping (unused when por is off).
    std::vector<std::uint16_t> sleptRules; ///< per-node scratch
    std::vector<EdgeMeta> batchMeta;       ///< aligned with batch
    /** Every generated edge this level, resolved into sleep masks at
     * the barrier (same-level edges into one state merge by
     * intersection; deterministic for any thread count). */
    std::vector<MaskEdge> maskEdges;
    std::vector<std::uint64_t> ruleSlept;
    std::uint64_t slept = 0;
};

} // namespace

std::string
Violation::describe() const
{
    std::string txt;
    switch (kind) {
      case Kind::Conjunct:
        txt = "conjunct '" + conjunctName + "' (family " +
              conjunctFamily + ") violated";
        break;
      case Kind::Overflow:
        txt = "channel overflow";
        if (!overflowRule.empty())
            txt += " (rule " + overflowRule + ")";
        break;
      case Kind::Deadlock:
        txt = "deadlock before program completion";
        break;
    }
    txt += " at depth " + std::to_string(depth);
    return txt;
}

Explorer::Explorer(const RuleSet &rules, const Scenario &scenario,
                   const InvariantSet &invariants)
    : rules_(rules), scenario_(scenario), invariants_(invariants)
{
}

std::vector<TraceStep>
Explorer::rebuildTrace(const StateStore &store, std::uint32_t idx) const
{
    std::vector<TraceStep> trace;
    std::uint32_t cur = idx;
    while (cur != StateStore::kNoParent) {
        TraceStep step;
        // stateInto works in both store modes; compact-mode callers
        // are responsible for only rebuilding retained entries (the
        // explorer calls this under compaction only when the backend
        // retains everything — see StateStore::statesAlwaysReadable).
        store.stateInto(cur, step.state);
        const std::uint32_t parent = store.parentAt(cur);
        if (parent != StateStore::kNoParent)
            step.ruleName = rules_.rules()[store.ruleAt(cur)].name;
        trace.push_back(std::move(step));
        cur = parent;
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
}

ExploreResult
Explorer::run(const ExploreOptions &options)
{
    auto start = std::chrono::steady_clock::now();
    auto finish = [&start](ExploreResult &r) -> ExploreResult & {
        auto end = std::chrono::steady_clock::now();
        r.seconds = std::chrono::duration<double>(end - start).count();
        return r;
    };

    std::size_t threads = options.numThreads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    // A per-worker scratch (and an OS thread) is allocated for each
    // worker, so clamp runaway requests to something a machine could
    // plausibly have.
    threads = std::min<std::size_t>(threads, 1024);

    ExploreResult result;
    result.ruleFireCounts.assign(rules_.rules().size(), 0);
    result.ruleSleptCounts.assign(rules_.rules().size(), 0);

    // Sleep-set reduction context: the pairwise independence relation
    // from the rules' static footprints and, under symmetry, the
    // per-permutation rule remap tables.  Throws when the rule set
    // exceeds the POR engine's mask width.
    std::optional<PorContext> por;
    if (options.por)
        por.emplace(rules_, options.symmetryReduction,
                    options.canonicaliseTids);

    StateStore store(StoreConfig{
        1 << 16,
        options.compaction ? StoreMode::Compact : StoreMode::Full,
        options.storeBackend, options.storeDir,
        options.storeCapacity});
    if (options.expectedStates != 0)
        store.reserveStates(options.expectedStates);
    Context ctx{&scenario_};

    // finish() is declared before the store exists; every return of
    // this function goes through here so the out-of-core byte
    // counters ride along.
    auto finishRun = [&](ExploreResult &r) -> ExploreResult & {
        r.storeMappedBytes = store.mappedBytes();
        r.storeFileBytes = store.backingFileBytes();
        return finish(r);
    };

    // One stop word for the whole run: maxStates, the wall-clock and
    // RSS budgets, external cancellation and shard-full all trip it,
    // and workers drain within one batch of a trip.
    RunGovernor governor(
        {options.maxSeconds, options.maxRssBytes, options.cancel});

    // Progress samples ride the same flush cadence as the budget
    // polls; with no observer installed the ticker is counter folds
    // only.
    ProgressTicker progress(options.progress,
                            options.progressIntervalSeconds);

    auto symmetry_canon = [&options](SystemState &s) {
        if (!options.symmetryReduction)
            return;
        // Map the state to the bytewise-least member of its
        // device-permutation orbit (all ndev! relabelings, device ids
        // in store values and tids remapped along).  Successors (and
        // the initial state) were already tid-canonicalised whenever
        // the option is on, so the identity image skips the rescan.
        s = s.deviceCanonical(options.canonicaliseTids,
                              options.canonicaliseTids);
    };

    SystemState init = scenario_.initial;
    if (options.canonicaliseTids)
        init.canonicaliseTids();
    symmetry_canon(init);

    auto [init_idx, inserted] =
        store.insert(init, StateStore::kNoParent, 0, 0);
    (void)inserted;

    auto record = [&](const Candidate &c) {
        Violation v;
        v.kind = c.kind;
        if (c.conjunct) {
            v.conjunctName = c.conjunct->name;
            v.conjunctFamily = c.conjunct->family;
        }
        v.stateIndex = c.idx;
        v.depth = c.depth;
        if (c.kind == Violation::Kind::Overflow)
            v.overflowRule = rules_.rules()[c.edgeRule].name;
        if (!store.statesAlwaysReadable()) {
            // Breadcrumb states are not retained (in-RAM compact
            // mode; an mmap-backed compact store keeps every sealed
            // cell in its backing file and rebuilds the full path
            // below).  The bad state itself is still in the arena
            // when it was first discovered this level; show it alone.
            v.traceNote =
                "trace unavailable: hash-compaction mode stores "
                "fingerprints, not states; re-run without compaction "
                "(or with --store=mmap-compact) to rebuild the full "
                "path";
            if (store.depthAt(c.idx) == c.depth &&
                store.stateRetained(c.idx)) {
                TraceStep step;
                step.ruleName = v.overflowRule;
                store.stateInto(c.idx, step.state);
                v.trace.push_back(std::move(step));
            }
        } else if (c.kind == Violation::Kind::Overflow) {
            // Overflow is an edge property: rebuild the path to the
            // edge's *source* and append the edge itself, so the
            // printed trace ends with the overflowing rule even when
            // the target state was first reached some other way.
            v.trace = rebuildTrace(store, c.edgeParent);
            TraceStep step;
            step.ruleName = v.overflowRule;
            store.stateInto(c.idx, step.state);
            v.trace.push_back(std::move(step));
        } else {
            v.trace = rebuildTrace(store, c.idx);
        }
        result.violation = std::move(v);
    };

    // Check the initial state itself.
    if (options.checkInvariants) {
        if (const Conjunct *bad = invariants_.firstFailure(init, ctx)) {
            ++result.violationCount;
            record({Violation::Kind::Conjunct, bad, init_idx, 0,
                    init.hash()});
            if (options.stopAtFirstViolation) {
                result.numStates = store.size();
                result.probeCollisions = store.probeCollisions();
                return finishRun(result);
            }
        }
    }

    // The frontier holds packed store ids only; workers read the
    // state bytes straight out of the store's pointer-stable arena,
    // so states are never copied into per-level queues.  Under POR a
    // parallel vector carries each frontier state's sleep mask (the
    // initial state sleeps nothing).
    std::vector<std::uint32_t> frontier, next_frontier;
    std::vector<RuleMask> frontier_masks, next_masks;
    frontier.push_back(init_idx);
    if (options.por)
        frontier_masks.emplace_back();
    const RuleMask all_rules_mask =
        RuleMask::firstN(rules_.rules().size());
    store.sealLevel(); // establish the level-0 boundary

    std::vector<WorkerScratch> scratch(threads);
    for (WorkerScratch &s : scratch) {
        s.ruleFires.assign(rules_.rules().size(), 0);
        if (options.por)
            s.ruleSlept.assign(rules_.rules().size(), 0);
    }

    // Constructed lazily at the first level that actually goes
    // parallel: small explorations (e.g. the deadlock grid's hundreds
    // of tiny program-pair runs) never pay for spawning workers.
    std::optional<ThreadPool> pool;

    std::uint32_t depth = 0;
    bool governed_stop = false;
    bool violation_stopped = false;

    // Batches this close to maxStates flush per successor, which
    // restores the old check-after-every-insert behaviour and bounds
    // the cap overshoot at one state per worker.
    const std::uint64_t soft_cap =
        options.maxStates > threads * kFlushBatch
            ? options.maxStates - threads * kFlushBatch
            : 0;

    // First exception thrown by any worker (e.g. a full shard); it
    // is rethrown at the level barrier so errors surface as a
    // catchable exception from run() in parallel mode too.
    std::mutex error_mutex;
    std::exception_ptr worker_error;

    while (!frontier.empty()) {
        result.maxDepth = std::max(result.maxDepth, depth);
        if (depth >= options.maxDepth) {
            // Depth-capped states count toward the diameter but are
            // not expanded; the walk still counts as completed.
            frontier.clear();
            break;
        }

        // Budgets can expire between levels too (tiny levels flush
        // rarely), and a pre-cancelled token must stop before any
        // expansion.
        governor.poll();
        progress.tick(store.size(), 0, depth);
        if (governor.stopped()) {
            governed_stop = true;
            break;
        }

        std::atomic<std::size_t> cursor{0};

        // Claim granularity: fine enough that a level spreads over
        // all workers, coarse enough that the claim counter is not a
        // contention point (per-state work is microseconds).
        const std::size_t grain = std::max<std::size_t>(
            1, std::min<std::size_t>(
                   64, frontier.size() / (8 * threads)));

        // Flush a worker's pending successor batch: one store pass
        // grouped by shard (a single lock acquisition per shard per
        // batch), then the post-insert work — overflow candidates,
        // invariant checks on fresh states, frontier growth — all
        // outside any lock.
        auto flushBatch = [&](WorkerScratch &ws, Context &wctx) {
            if (ws.batch.empty())
                return;
            const std::size_t flushed = ws.batch.size();
            store.insertBatch(ws.batch.data(), ws.batch.size());
            for (const PendingOverflow &po : ws.overflows) {
                const StateStore::BatchItem &item =
                    ws.batch[po.batchIndex];
                ws.candidates.push_back(
                    {Violation::Kind::Overflow, nullptr, item.id,
                     item.depth, item.hash, item.rule, item.parent,
                     po.parentHash});
            }
            ws.overflows.clear();
            for (std::size_t bi = 0; bi < ws.batch.size(); ++bi) {
                const StateStore::BatchItem &item = ws.batch[bi];
                // Every edge is logged, including edges landing on
                // already-known states: if the target turns out to
                // sit in the level being built, the barrier
                // intersects all its incoming masks (breadcrumb
                // columns cannot be read here — peers are still
                // inserting).
                if (options.por) {
                    ws.maskEdges.push_back(
                        {item.id, ws.batchMeta[bi].nodePos, item.rule,
                         ws.batchMeta[bi].permKey});
                }
                if (!item.inserted)
                    continue;
                if (options.checkInvariants) {
                    if (const Conjunct *bad = invariants_.firstFailure(
                            item.state, wctx)) {
                        ws.candidates.push_back(
                            {Violation::Kind::Conjunct, bad, item.id,
                             item.depth, item.hash});
                    }
                }
                ws.next.push_back(item.id);
            }
            ws.batch.clear();
            ws.batchMeta.clear();
            // Budget check rides the flush: once per <= kFlushBatch
            // successors per worker.
            governor.poll();
            progress.tick(store.size(), flushed, depth + 1);
        };

        auto workLevel = [&](WorkerScratch &ws) {
            Context wctx{&scenario_};
            // Compact-mode cells are decompressed into this per-call
            // buffer; full mode reads the arena slot in place.
            SystemState decode_buf;
            for (;;) {
                if (governor.stopped())
                    return;
                std::size_t begin =
                    cursor.fetch_add(grain, std::memory_order_relaxed);
                if (begin >= frontier.size())
                    return;
                std::size_t end =
                    std::min(begin + grain, frontier.size());
                for (std::size_t i = begin; i < end; ++i) {
                    const std::uint32_t node_idx = frontier[i];
                    const SystemState *node_ptr;
                    if (options.compaction) {
                        store.stateInto(node_idx, decode_buf);
                        node_ptr = &decode_buf;
                    } else {
                        node_ptr = &store.stateAt(node_idx);
                    }
                    const SystemState &node_state = *node_ptr;
                    if (options.por) {
                        rules_.successorsPor(
                            node_state, scenario_,
                            options.canonicaliseTids,
                            frontier_masks[i].words.data(), ws.succs,
                            ws.sleptRules);
                        ws.slept += ws.sleptRules.size();
                        for (std::uint16_t r : ws.sleptRules)
                            ++ws.ruleSlept[r];
                    } else {
                        rules_.successorsInto(node_state, scenario_,
                                              options.canonicaliseTids,
                                              ws.succs);
                    }

                    // Deadlock = no *enabled* rule; slept rules are
                    // enabled, merely not fired from here.
                    if (ws.succs.empty() &&
                        (!options.por || ws.sleptRules.empty()) &&
                        options.checkDeadlock && !scenario_.freeRun &&
                        !scenario_.finished(node_state)) {
                        ws.candidates.push_back(
                            {Violation::Kind::Deadlock, nullptr,
                             node_idx, depth, node_state.hash()});
                    }

                    // The source state's hash is only needed to order
                    // racing overflow edges; computed at most once
                    // per node, and only for mutated models.
                    std::uint64_t node_hash = 0;
                    bool node_hash_valid = false;

                    for (auto &succ : ws.succs) {
                        ++ws.transitions;
                        ++ws.ruleFires[succ.rule->id];
                        // Under POR only the edge descriptor is
                        // recorded here; its sleep-mask contribution
                        // — (node sleep ∪ {rules fired before it}) ∩
                        // indep(rule), relabelled through the
                        // canonicalising permutation — is re-derived
                        // at the barrier, where the store is
                        // quiescent and the masks need not be
                        // materialised per edge.
                        std::uint8_t perm_key =
                            PorContext::kIdentityPermKey;
                        if (options.symmetryReduction) {
                            std::uint8_t perm[kMaxDevices];
                            succ.state = succ.state.deviceCanonical(
                                options.canonicaliseTids,
                                options.canonicaliseTids,
                                options.por ? perm : nullptr);
                            if (options.por) {
                                perm_key = PorContext::permKey(
                                    perm, rules_.numDevices());
                            }
                        }
                        if (options.por) {
                            ws.batchMeta.push_back(
                                {static_cast<std::uint32_t>(i),
                                 perm_key});
                        }

                        StateStore::BatchItem item;
                        item.hash = succ.state.hash();
                        item.state = std::move(succ.state);
                        item.parent = node_idx;
                        item.depth = depth + 1;
                        item.rule = succ.rule->id;
                        ws.batch.push_back(std::move(item));

                        if (succ.overflow) {
                            if (!node_hash_valid) {
                                node_hash = node_state.hash();
                                node_hash_valid = true;
                            }
                            ws.overflows.push_back(
                                {static_cast<std::uint32_t>(
                                     ws.batch.size() - 1),
                                 node_hash});
                        }

                        if (store.size() + ws.batch.size() >=
                                soft_cap ||
                            ws.batch.size() >= kFlushBatch) {
                            flushBatch(ws, wctx);
                            if (store.size() >= options.maxStates)
                                governor.trip(StopReason::StateCap);
                            if (governor.stopped())
                                return;
                        }
                    }
                }
                flushBatch(ws, wctx);
            }
        };

        auto work = [&](WorkerScratch &ws) {
            try {
                workLevel(ws);
            } catch (const StoreFullError &) {
                // A full shard is a governed stop, not an error: the
                // store still holds a valid explored prefix.  The
                // interrupted batch is dropped whole (insertBatch may
                // have stopped mid-way, leaving item ids half
                // filled), so no post-insert work runs on it.
                ws.batch.clear();
                ws.batchMeta.clear();
                ws.overflows.clear();
                governor.trip(StopReason::ShardFull);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!worker_error)
                    worker_error = std::current_exception();
                // Make peers drain their claims promptly; the rethrow
                // below surfaces the real error before the stop
                // reason could be reported.
                governor.trip(StopReason::InternalError);
            }
        };

        // Small levels are expanded inline: the result is identical
        // by construction and the dispatch overhead is skipped.
        const bool parallel =
            threads > 1 && frontier.size() >= 2 * threads;
        if (parallel) {
            if (!pool)
                pool.emplace(threads);
            for (std::size_t t = 0; t < threads; ++t)
                pool->submit([&, t] { work(scratch[t]); });
            pool->wait();
        } else {
            work(scratch[0]);
        }
        if (worker_error)
            std::rethrow_exception(worker_error);

        // Depth barrier: merge per-worker scratch into the result.
        next_frontier.clear();
        std::optional<Candidate> best;
        for (WorkerScratch &ws : scratch) {
            result.numTransitions += ws.transitions;
            ws.transitions = 0;
            result.sleptTransitions += ws.slept;
            ws.slept = 0;
            for (std::size_t r = 0; r < ws.ruleFires.size(); ++r) {
                result.ruleFireCounts[r] += ws.ruleFires[r];
                ws.ruleFires[r] = 0;
            }
            for (std::size_t r = 0; r < ws.ruleSlept.size(); ++r) {
                result.ruleSleptCounts[r] += ws.ruleSlept[r];
                ws.ruleSlept[r] = 0;
            }
            next_frontier.insert(next_frontier.end(), ws.next.begin(),
                                 ws.next.end());
            ws.next.clear();
            for (const Candidate &c : ws.candidates) {
                ++result.violationCount;
                if (!best || candidateLess(c, *best))
                    best = c;
            }
            ws.candidates.clear();
        }

        if (best && !result.violation) {
            record(*best); // store is quiescent at the barrier
            if (options.stopAtFirstViolation)
                violation_stopped = true;
        }
        if (governor.stopped())
            governed_stop = true;
        if (violation_stopped || governed_stop)
            break;

        if (options.por) {
            // Resolve the next level's sleep masks from the edge
            // logs: walk each worker's log (edges of one node are
            // contiguous, in fired order), rebuild the accumulator
            // (node sleep ∪ fired-so-far), and intersect each
            // same-level edge's contribution into its target — a
            // state inserted this level sleeps the intersection over
            // every same-level edge into it (intersection is
            // order-free, so the result is thread-count-independent).
            // Edges into older states carry no information forward.
            std::sort(next_frontier.begin(), next_frontier.end());
            next_masks.assign(next_frontier.size(), all_rules_mask);
            for (WorkerScratch &ws : scratch) {
                std::size_t j = 0;
                while (j < ws.maskEdges.size()) {
                    const std::uint32_t node_pos =
                        ws.maskEdges[j].nodePos;
                    RuleMask acc = frontier_masks[node_pos];
                    for (; j < ws.maskEdges.size() &&
                           ws.maskEdges[j].nodePos == node_pos;
                         ++j) {
                        const MaskEdge &e = ws.maskEdges[j];
                        if (store.depthAt(e.id) == depth + 1) {
                            RuleMask m =
                                acc & por->independentOf(e.rule);
                            if (e.permKey !=
                                    PorContext::kIdentityPermKey &&
                                !m.none()) {
                                m = por->remapByKey(m, e.permKey);
                            }
                            const auto it = std::lower_bound(
                                next_frontier.begin(),
                                next_frontier.end(), e.id);
                            next_masks[static_cast<std::size_t>(
                                it - next_frontier.begin())] &= m;
                        }
                        acc.set(e.rule);
                    }
                }
                ws.maskEdges.clear();
            }
        }

        // Quiescent barrier hook: releases (in-RAM compact) or
        // unmaps (mmap backends) the state bytes of the level whose
        // expansion just finished.
        store.sealLevel();
        frontier.swap(next_frontier);
        frontier_masks.swap(next_masks);
        ++depth;
    }

    result.numStates = store.size();
    result.probeCollisions = store.probeCollisions();
    result.completed =
        frontier.empty() && !governed_stop && !violation_stopped;
    result.stopReason = governed_stop ? governor.reason()
                                      : StopReason::None;
    // Deepest fully-expanded level: every level is drained before
    // the barrier, so a violation stop still finished level `depth`;
    // a governed stop interrupted it (level depth-1 was the last one
    // finished); a completed run expanded everything.
    if (governed_stop)
        result.deepestCompleteLevel = depth > 0 ? depth - 1 : 0;
    else if (violation_stopped)
        result.deepestCompleteLevel = depth;
    else
        result.deepestCompleteLevel = result.maxDepth;
    return finishRun(result);
}

} // namespace cxl
