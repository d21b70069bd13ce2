/**
 * @file
 * Device-side transition rules (paper Fig. 4, left-hand components).
 *
 * Each rule template is instantiated once per active device.  Names
 * carry a 1-based device suffix to match the paper's tables
 * (InvalidLoad1, SharedSnpInv1, MIA_GO_WritePull1, ...).
 */

#include <cassert>

#include "protocol/rules.hh"

namespace cxl
{
namespace
{

/** Store data written by device d (0-based): a distinct non-zero Val. */
constexpr Val
storeValue(int d)
{
    return static_cast<Val>(d + 1);
}

/** Counter ceiling; keeps uint8 tids collision-free. */
constexpr std::uint8_t kCounterMax = 250;

/** Allocate a fresh transaction id from the global counter. */
Tid
allocTid(SystemState &s)
{
    Tid t = s.counter;
    s.counter = static_cast<std::uint8_t>(s.counter + 1);
    return t;
}

/** Retire the current instruction of device @p d and clear its buffer. */
void
completeInstr(SystemState &s, int d, const Context &ctx)
{
    s.dev[d].pc = ctx.scenario->nextPc(d, s.dev[d].pc);
    s.dev[d].buffer = DBuffer::empty();
}

/** Head of the device's H2D response channel is (GO, target). */
bool
headIsGo(const DeviceState &d, DState target)
{
    return !d.h2dRsp.empty() && d.h2dRsp.front().op == H2DRspOp::GO &&
           d.h2dRsp.front().target == target;
}

/** Head of the device's H2D response channel has the given opcode. */
bool
headIsRsp(const DeviceState &d, H2DRspOp op)
{
    return !d.h2dRsp.empty() && d.h2dRsp.front().op == op;
}

/** Head of the device's H2D request (snoop) channel has the opcode. */
bool
headIsSnoop(const DeviceState &d, H2DReqOp op)
{
    return !d.h2dReq.empty() && d.h2dReq.front().op == op;
}

/**
 * Snoop-pushes-GO (CXL 3.1 Section 3.2.5.2): a device may only process
 * a snoop when it has no pending H2D responses — unless the
 * corresponding mutation has relaxed the restriction.
 */
bool
snoopAllowed(const DeviceState &d, bool relaxed)
{
    return relaxed || d.h2dRsp.empty();
}

struct RuleBuilder {
    std::vector<Rule> &rules;
    int d;

    void
    add(const std::string &base, bool mutated, fp::Footprint footprint,
        Trigger trigger,
        std::function<bool(const SystemState &, const Context &)> guard,
        std::function<bool(SystemState &, const Context &)> apply)
    {
        Rule r;
        r.name = base + std::to_string(d + 1);
        r.dev = d;
        r.mutated = mutated;
        r.footprint = footprint;
        r.trigger = trigger;
        r.base = base;
        r.args = {static_cast<std::int8_t>(d), -1, -1};
        r.guard = std::move(guard);
        r.apply = std::move(apply);
        rules.push_back(std::move(r));
    }
};

/** Program-driven rules: Load/Store/Evict issue or hit (Fig. 4). */
void
addProgramRules(RuleBuilder &b, const ProtocolConfig &config)
{
    const int d = b.d;

    // Issue rules read/write the device core (state, pc), push onto
    // the device's own D2H request channel and allocate a tid from
    // the shared counter; purely local hit/retire rules touch only
    // the core.  The counter atom is what makes issue rules by
    // *different* devices conflict (tid allocation orders them).
    const fp::Footprint issue_fp{
        fp::core(d) | fp::d2hReq(d) | fp::kCounter,
        fp::core(d) | fp::d2hReq(d) | fp::kCounter,
        /*counterAllocOnly=*/true};
    const fp::Footprint local_fp{fp::core(d), fp::core(d)};

    // Program rules fire from the stable state they are named after.
    const Trigger in_i = Trigger{}.dev(d, dset({DState::I}));
    const Trigger in_s = Trigger{}.dev(d, dset({DState::S}));
    const Trigger in_m = Trigger{}.dev(d, dset({DState::M}));

    b.add("InvalidLoad", false, issue_fp, in_i,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::I &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Load) &&
                   !s.dev[d].d2hReq.full() && s.counter < kCounterMax;
        },
        [d](SystemState &s, const Context &) {
            Tid t = allocTid(s);
            s.dev[d].state = DState::ISAD;
            return s.dev[d].d2hReq.pushBack({D2HReqOp::RdShared, t});
        });

    b.add("InvalidStore", false, issue_fp, in_i,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::I &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Store) &&
                   !s.dev[d].d2hReq.full() && s.counter < kCounterMax;
        },
        [d](SystemState &s, const Context &) {
            Tid t = allocTid(s);
            s.dev[d].state = DState::IMAD;
            return s.dev[d].d2hReq.pushBack({D2HReqOp::RdOwn, t});
        });

    // Evicting an invalid line has no effect beyond retiring the
    // instruction (paper Section 5.1, clean_evict_test discussion).
    b.add("InvalidEvict", false, local_fp, in_i,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::I && !ctx.scenario->freeRun &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Evict);
        },
        [d](SystemState &s, const Context &ctx) {
            completeInstr(s, d, ctx);
            return true;
        });

    b.add("SharedLoad", false, local_fp, in_s,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::S && !ctx.scenario->freeRun &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Load);
        },
        [d](SystemState &s, const Context &ctx) {
            completeInstr(s, d, ctx);
            return true;
        });

    b.add("SharedStore", false, issue_fp, in_s,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::S &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Store) &&
                   !s.dev[d].d2hReq.full() && s.counter < kCounterMax;
        },
        [d](SystemState &s, const Context &) {
            Tid t = allocTid(s);
            s.dev[d].state = DState::SMAD;
            return s.dev[d].d2hReq.pushBack({D2HReqOp::RdOwn, t});
        });

    b.add("SharedEvict", false, issue_fp, in_s,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::S &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Evict) &&
                   !s.dev[d].d2hReq.full() && s.counter < kCounterMax;
        },
        [d](SystemState &s, const Context &) {
            Tid t = allocTid(s);
            s.dev[d].state = DState::SIA;
            return s.dev[d].d2hReq.pushBack({D2HReqOp::CleanEvict, t});
        });

    if (config.cleanEvictNoData) {
        b.add("SharedEvictNoData", false, issue_fp, in_s,
            [d](const SystemState &s, const Context &ctx) {
                return s.dev[d].state == DState::S &&
                       ctx.scenario->mayIssue(d, s.dev[d].pc,
                                              Instr::Evict) &&
                       !s.dev[d].d2hReq.full() && s.counter < kCounterMax;
            },
            [d](SystemState &s, const Context &) {
                Tid t = allocTid(s);
                s.dev[d].state = DState::SIAC;
                return s.dev[d].d2hReq.pushBack(
                    {D2HReqOp::CleanEvictNoData, t});
            });
    }

    b.add("ModifiedLoad", false, local_fp, in_m,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::M && !ctx.scenario->freeRun &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Load);
        },
        [d](SystemState &s, const Context &ctx) {
            completeInstr(s, d, ctx);
            return true;
        });

    b.add("ModifiedStore", false, local_fp, in_m,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::M &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Store);
        },
        [d](SystemState &s, const Context &ctx) {
            s.dev[d].val = storeValue(d);
            completeInstr(s, d, ctx);
            return true;
        });

    b.add("ModifiedEvict", false, issue_fp, in_m,
        [d](const SystemState &s, const Context &ctx) {
            return s.dev[d].state == DState::M &&
                   ctx.scenario->mayIssue(d, s.dev[d].pc, Instr::Evict) &&
                   !s.dev[d].d2hReq.full() && s.counter < kCounterMax;
        },
        [d](SystemState &s, const Context &) {
            Tid t = allocTid(s);
            s.dev[d].state = DState::MIA;
            return s.dev[d].d2hReq.pushBack({D2HReqOp::DirtyEvict, t});
        });
}

/**
 * GO / Data consumption rules for one in-flight upgrade.
 *
 * @param awaiting  transient awaiting both GO and Data (e.g. ISAD)
 * @param go_taken  transient after consuming GO (e.g. ISD)
 * @param data_taken transient after consuming Data (e.g. ISA)
 * @param final_state stable state reached (S or M)
 * @param is_store  final step performs the pending store
 */
void
addGrantConsumptionRules(RuleBuilder &b, DState awaiting, DState go_taken,
                         DState data_taken, DState final_state,
                         bool is_store)
{
    const int d = b.d;
    const std::string prefix = toString(awaiting);
    const DState go_target = final_state;

    // Consumption rules are what partial-order reduction thrives on:
    // each touches only its own device's core plus the channel(s) it
    // pops, so consumptions by distinct devices always commute.
    const fp::Footprint go_fp{fp::core(d) | fp::h2dRsp(d),
                              fp::core(d) | fp::h2dRsp(d)};
    const fp::Footprint data_fp{fp::core(d) | fp::h2dData(d),
                                fp::core(d) | fp::h2dData(d)};
    const fp::Footprint go_data_fp{
        fp::core(d) | fp::h2dRsp(d) | fp::h2dData(d),
        fp::core(d) | fp::h2dRsp(d) | fp::h2dData(d)};

    // Each rule waits in one transient state for the message(s) it
    // pops.
    const std::uint32_t go = fp::h2dRsp(d);
    const std::uint32_t data = fp::h2dData(d);
    const Trigger awaiting_t = Trigger{}.dev(d, dset({awaiting}));
    const Trigger go_taken_t = Trigger{}.dev(d, dset({go_taken}));
    const Trigger data_taken_t = Trigger{}.dev(d, dset({data_taken}));

    auto finish = [d, final_state, is_store](SystemState &s,
                                             const Context &ctx) {
        s.dev[d].state = final_state;
        if (is_store)
            s.dev[d].val = storeValue(d);
        completeInstr(s, d, ctx);
    };

    b.add(prefix + "_GO", false, go_fp, awaiting_t.needs(go),
        [d, awaiting, go_target](const SystemState &s, const Context &) {
            return s.dev[d].state == awaiting &&
                   headIsGo(s.dev[d], go_target);
        },
        [d, go_taken](SystemState &s, const Context &) {
            s.dev[d].h2dRsp.popFront();
            s.dev[d].state = go_taken;
            return true;
        });

    b.add(prefix + "_Data", false, data_fp, awaiting_t.needs(data),
        [d, awaiting](const SystemState &s, const Context &) {
            return s.dev[d].state == awaiting && !s.dev[d].h2dData.empty();
        },
        [d, data_taken](SystemState &s, const Context &) {
            s.dev[d].val = s.dev[d].h2dData.front().val;
            s.dev[d].h2dData.popFront();
            s.dev[d].state = data_taken;
            return true;
        });

    b.add(prefix + "_GO_Data", false, go_data_fp,
          awaiting_t.needs(go | data),
        [d, awaiting, go_target](const SystemState &s, const Context &) {
            return s.dev[d].state == awaiting &&
                   headIsGo(s.dev[d], go_target) &&
                   !s.dev[d].h2dData.empty();
        },
        [d, finish](SystemState &s, const Context &ctx) {
            s.dev[d].val = s.dev[d].h2dData.front().val;
            s.dev[d].h2dRsp.popFront();
            s.dev[d].h2dData.popFront();
            finish(s, ctx);
            return true;
        });

    b.add(toString(go_taken) + "_Data", false, data_fp,
          go_taken_t.needs(data),
        [d, go_taken](const SystemState &s, const Context &) {
            return s.dev[d].state == go_taken && !s.dev[d].h2dData.empty();
        },
        [d, finish](SystemState &s, const Context &ctx) {
            s.dev[d].val = s.dev[d].h2dData.front().val;
            s.dev[d].h2dData.popFront();
            finish(s, ctx);
            return true;
        });

    b.add(toString(data_taken) + "_GO", false, go_fp,
          data_taken_t.needs(go),
        [d, data_taken, go_target](const SystemState &s, const Context &) {
            return s.dev[d].state == data_taken &&
                   headIsGo(s.dev[d], go_target);
        },
        [d, finish](SystemState &s, const Context &ctx) {
            s.dev[d].h2dRsp.popFront();
            finish(s, ctx);
            return true;
        });
}

/** Eviction-completion rules (GO_WritePull / GO_WritePullDrop). */
void
addEvictionCompletionRules(RuleBuilder &b)
{
    const int d = b.d;

    // Pulls consume the GO and emit writeback data; drops consume the
    // GO only.  All device-local: core + the channels named.
    const fp::Footprint pull_fp{
        fp::core(d) | fp::h2dRsp(d) | fp::d2hData(d),
        fp::core(d) | fp::h2dRsp(d) | fp::d2hData(d)};
    const fp::Footprint drop_fp{fp::core(d) | fp::h2dRsp(d),
                                fp::core(d) | fp::h2dRsp(d)};
    const fp::Footprint h2ddata_fp{fp::core(d) | fp::h2dData(d),
                                   fp::core(d) | fp::h2dData(d)};

    // Each completion waits in its named state for the GO (or data)
    // at the head of its channel.
    auto go_in = [d](DState st) {
        return Trigger{}.dev(d, dset({st})).needs(fp::h2dRsp(d));
    };

    // Dirty eviction: the pull triggers the implicit writeback
    // (Table 2's MIA_GO_WritePull step).
    b.add("MIA_GO_WritePull", false, pull_fp, go_in(DState::MIA),
        [d](const SystemState &s, const Context &) {
            return s.dev[d].state == DState::MIA &&
                   headIsRsp(s.dev[d], H2DRspOp::GO_WritePull) &&
                   !s.dev[d].d2hData.full();
        },
        [d](SystemState &s, const Context &ctx) {
            Tid t = s.dev[d].h2dRsp.front().tid;
            s.dev[d].h2dRsp.popFront();
            bool ok = s.dev[d].d2hData.pushBack({t, s.dev[d].val, 0});
            s.dev[d].state = DState::I;
            completeInstr(s, d, ctx);
            return ok;
        });

    // Clean eviction completes with a drop (Table 1's
    // SIA_GO_WritePullDrop step).
    b.add("SIA_GO_WritePullDrop", false, drop_fp, go_in(DState::SIA),
        [d](const SystemState &s, const Context &) {
            return s.dev[d].state == DState::SIA &&
                   headIsRsp(s.dev[d], H2DRspOp::GO_WritePullDrop);
        },
        [d](SystemState &s, const Context &ctx) {
            s.dev[d].h2dRsp.popFront();
            s.dev[d].state = DState::I;
            completeInstr(s, d, ctx);
            return true;
        });

    // The host may pull the clean line instead.
    b.add("SIA_GO_WritePull", false, pull_fp, go_in(DState::SIA),
        [d](const SystemState &s, const Context &) {
            return s.dev[d].state == DState::SIA &&
                   headIsRsp(s.dev[d], H2DRspOp::GO_WritePull) &&
                   !s.dev[d].d2hData.full();
        },
        [d](SystemState &s, const Context &ctx) {
            Tid t = s.dev[d].h2dRsp.front().tid;
            s.dev[d].h2dRsp.popFront();
            bool ok = s.dev[d].d2hData.pushBack({t, s.dev[d].val, 0});
            s.dev[d].state = DState::I;
            completeInstr(s, d, ctx);
            return ok;
        });

    // CleanEvictNoData promised no data, so only a drop is legal.
    b.add("SIAC_GO_WritePullDrop", false, drop_fp, go_in(DState::SIAC),
        [d](const SystemState &s, const Context &) {
            return s.dev[d].state == DState::SIAC &&
                   headIsRsp(s.dev[d], H2DRspOp::GO_WritePullDrop);
        },
        [d](SystemState &s, const Context &ctx) {
            s.dev[d].h2dRsp.popFront();
            s.dev[d].state = DState::I;
            completeInstr(s, d, ctx);
            return true;
        });

    // A snoop hit the writeback: any data the device still sends for
    // the eviction must carry the Bogus flag (CXL 3.1 Section 3.2.5.4).
    b.add("IIA_GO_WritePull", false, pull_fp, go_in(DState::IIA),
        [d](const SystemState &s, const Context &) {
            return s.dev[d].state == DState::IIA &&
                   headIsRsp(s.dev[d], H2DRspOp::GO_WritePull) &&
                   !s.dev[d].d2hData.full();
        },
        [d](SystemState &s, const Context &ctx) {
            Tid t = s.dev[d].h2dRsp.front().tid;
            s.dev[d].h2dRsp.popFront();
            bool ok = s.dev[d].d2hData.pushBack({t, s.dev[d].val, 1});
            s.dev[d].state = DState::I;
            completeInstr(s, d, ctx);
            return ok;
        });

    // Section 4.4 proposed fix: the host may drop instead, saving the
    // bogus data transfer entirely.
    b.add("IIA_GO_WritePullDrop", false, drop_fp, go_in(DState::IIA),
        [d](const SystemState &s, const Context &) {
            return s.dev[d].state == DState::IIA &&
                   headIsRsp(s.dev[d], H2DRspOp::GO_WritePullDrop);
        },
        [d](SystemState &s, const Context &ctx) {
            s.dev[d].h2dRsp.popFront();
            s.dev[d].state = DState::I;
            completeInstr(s, d, ctx);
            return true;
        });

    // Read-once completion after an ISD-state snoop invalidation.
    b.add("ISDI_Data", false, h2ddata_fp,
          Trigger{}.dev(d, dset({DState::ISDI})).needs(fp::h2dData(d)),
        [d](const SystemState &s, const Context &) {
            return s.dev[d].state == DState::ISDI &&
                   !s.dev[d].h2dData.empty();
        },
        [d](SystemState &s, const Context &ctx) {
            s.dev[d].h2dData.popFront();
            s.dev[d].state = DState::I;
            completeInstr(s, d, ctx);
            return true;
        });
}

/** Snoop-processing rules (Fig. 4's SharedSnpInv and friends). */
void
addSnoopRules(RuleBuilder &b, const ProtocolConfig &config)
{
    const int d = b.d;
    const bool relax_all = config.relaxSnoopPushesGo;
    const bool relax_smad = config.relaxSmadSnoopGuard || relax_all;

    /**
     * Generic snoop rule: when in @p from and the head snoop is @p op,
     * move to @p to, respond with @p rsp, and forward the (dirty) line
     * if @p fwd_data.
     */
    auto add_snoop = [&](const char *base, DState from, H2DReqOp op,
                         DState to, D2HRspOp rsp, bool fwd_data,
                         bool relaxed) {
        // Guard reads the snoop channel, the response channel
        // (snoopAllowed) and the d2hRsp/d2hData headroom; the action
        // pops the snoop, moves the core and pushes the response
        // (plus forwarded data).  h2dRsp is read-only.
        fp::Footprint snoop_fp{fp::core(d) | fp::h2dReq(d) |
                                   fp::h2dRsp(d) | fp::d2hRsp(d) |
                                   fp::d2hData(d),
                               fp::core(d) | fp::h2dReq(d) |
                                   fp::d2hRsp(d)};
        if (fwd_data)
            snoop_fp.writes |= fp::d2hData(d);
        const Trigger snoop_t =
            Trigger{}.dev(d, dset({from})).needs(fp::h2dReq(d));
        b.add(base, false, snoop_fp, snoop_t,
            [d, from, op, relaxed](const SystemState &s, const Context &) {
                return s.dev[d].state == from &&
                       headIsSnoop(s.dev[d], op) &&
                       snoopAllowed(s.dev[d], relaxed) &&
                       !s.dev[d].d2hRsp.full() &&
                       !s.dev[d].d2hData.full();
            },
            [d, to, rsp, fwd_data](SystemState &s, const Context &) {
                H2DReq snoop = s.dev[d].h2dReq.front();
                s.dev[d].h2dReq.popFront();
                s.dev[d].buffer = DBuffer::fromReq(snoop);
                s.dev[d].state = to;
                bool ok = s.dev[d].d2hRsp.pushBack({rsp, snoop.tid});
                if (fwd_data) {
                    ok = s.dev[d].d2hData.pushBack(
                             {snoop.tid, s.dev[d].val, 0}) &&
                         ok;
                }
                return ok;
            });
    };

    add_snoop("SharedSnpInv", DState::S, H2DReqOp::SnpInv, DState::I,
              D2HRspOp::RspIHitSE, false, relax_all);
    add_snoop("ModifiedSnpInv", DState::M, H2DReqOp::SnpInv, DState::I,
              D2HRspOp::RspIFwdM, true, relax_all);
    add_snoop("ModifiedSnpData", DState::M, H2DReqOp::SnpData, DState::S,
              D2HRspOp::RspSFwdM, true, relax_all);
    add_snoop("MIASnpInv", DState::MIA, H2DReqOp::SnpInv, DState::IIA,
              D2HRspOp::RspIFwdM, true, relax_all);
    add_snoop("MIASnpData", DState::MIA, H2DReqOp::SnpData, DState::SIA,
              D2HRspOp::RspSFwdM, true, relax_all);
    add_snoop("SIASnpInv", DState::SIA, H2DReqOp::SnpInv, DState::IIA,
              D2HRspOp::RspIHitSE, false, relax_all);
    add_snoop("SIACSnpInv", DState::SIAC, H2DReqOp::SnpInv, DState::IIA,
              D2HRspOp::RspIHitSE, false, relax_all);
    add_snoop("ISDSnpInv", DState::ISD, H2DReqOp::SnpInv, DState::ISDI,
              D2HRspOp::RspIHitSE, false, relax_all);
    add_snoop("SMADSnpInv", DState::SMAD, H2DReqOp::SnpInv, DState::IMAD,
              D2HRspOp::RspIHitSE, false, relax_smad);

    if (config.relaxSnoopPushesGo) {
        // The deliberately-broken rule of Table 3: an ISAD line
        // processes a SnpInv ahead of its pending GO and answers
        // RspIHitI while *remaining in ISAD*, so it will later accept
        // the stale grant.
        auto add_broken = [&](const char *base, DState from) {
            const fp::Footprint broken_fp{
                fp::core(d) | fp::h2dReq(d) | fp::d2hRsp(d),
                fp::core(d) | fp::h2dReq(d) | fp::d2hRsp(d)};
            b.add(base, true, broken_fp,
                Trigger{}.dev(d, dset({from})).needs(fp::h2dReq(d)),
                [d, from](const SystemState &s, const Context &) {
                    return s.dev[d].state == from &&
                           headIsSnoop(s.dev[d], H2DReqOp::SnpInv) &&
                           !s.dev[d].d2hRsp.full();
                },
                [d](SystemState &s, const Context &) {
                    H2DReq snoop = s.dev[d].h2dReq.front();
                    s.dev[d].h2dReq.popFront();
                    s.dev[d].buffer = DBuffer::fromReq(snoop);
                    return s.dev[d].d2hRsp.pushBack(
                        {D2HRspOp::RspIHitI, snoop.tid});
                });
        };
        add_broken("ISADSnpInv", DState::ISAD);
        add_broken("IMADSnpInv", DState::IMAD);
    }
}

} // namespace

void
addDeviceRules(std::vector<Rule> &rules, int d,
               const ProtocolConfig &config)
{
    assert(d >= 0 && d < kMaxDevices);
    RuleBuilder b{rules, d};

    addProgramRules(b, config);

    addGrantConsumptionRules(b, DState::ISAD, DState::ISD, DState::ISA,
                             DState::S, false);
    addGrantConsumptionRules(b, DState::IMAD, DState::IMD, DState::IMA,
                             DState::M, true);
    addGrantConsumptionRules(b, DState::SMAD, DState::SMD, DState::SMA,
                             DState::M, true);

    addEvictionCompletionRules(b);
    addSnoopRules(b, config);
}

} // namespace cxl
