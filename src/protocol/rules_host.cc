/**
 * @file
 * Host-side transition rules, generalised to N devices.
 *
 * The host is home agent and perfect-tracking directory (paper
 * Section 8): HCache.State mirrors the collective device-side state
 * (I = nobody holds the line, S = sharers exist, M = a device owns
 * it), and transient host states gate the emission of GO messages,
 * which is how the GO-cannot-tailgate-snoop restriction of CXL 3.1
 * Section 3.2.5.2 is realised.
 *
 * In the paper's two-device model the requester of the in-flight
 * transaction is always "the other device" and lives implicitly in
 * the rule instantiation; with N devices it is tracked explicitly in
 * SystemState::hreq (set when a transient host state is entered,
 * cleared when the directory returns to a stable state).  Rules that
 * interact with a snooped peer are instantiated once per ordered
 * (requester, target) pair; for more than two devices an ownership
 * grant chains one SnpInv per remaining sharer (one snoop pending at
 * a time, CXL 3.1 Section 3.2.5.5) before the GO is finally sent.
 *
 * Rules are named by the *requesting / evicting* device, exactly as
 * in the two-device model (HostMA_RspIHitSE1 consumes the snooped
 * peer's response and grants device 1); with more than two devices a
 * "_s<target>" (and, for chained snoops, "_n<next>") suffix keeps the
 * per-pair instances distinct.
 */

#include <cassert>

#include "protocol/rules.hh"

namespace cxl
{
namespace
{

bool
headReqIs(const DeviceState &d, D2HReqOp op)
{
    return !d.d2hReq.empty() && d.d2hReq.front().op == op;
}

bool
headRspIs(const DeviceState &d, D2HRspOp op)
{
    return !d.d2hRsp.empty() && d.d2hRsp.front().op == op;
}

bool
headDataClean(const DeviceState &d)
{
    return !d.d2hData.empty() && !d.d2hData.front().bogus;
}

/** The requester byte encoding device @p i (hreq is 1-based). */
constexpr std::uint8_t
asReq(int i)
{
    return static_cast<std::uint8_t>(i + 1);
}

/**
 * A sharer other than requester @p i and just-collected target @p o
 * remains to be invalidated.  Vacuously false in the two-device
 * model, where the MA acknowledgement always completes the grant.
 */
bool
anyThirdSharer(const SystemState &s, int i, int o)
{
    for (int k = 0; k < s.ndev; ++k) {
        if (k != i && k != o && sharerView(s, k))
            return true;
    }
    return false;
}

struct HostRuleBuilder {
    std::vector<Rule> &rules;
    int i;           ///< requester / evicter device (0-based)
    int numDevices;  ///< active device count

    /** Single construction site for every host rule. */
    void
    addNamed(std::string name, const std::string &base,
             std::array<std::int8_t, 3> args, bool mutated,
             fp::Footprint footprint, Trigger trigger,
             std::function<bool(const SystemState &, const Context &)>
                 guard,
             std::function<bool(SystemState &, const Context &)> apply)
    {
        Rule r;
        r.name = std::move(name);
        r.dev = i;
        r.mutated = mutated;
        r.footprint = footprint;
        r.trigger = trigger;
        r.base = base;
        r.args = args;
        r.guard = std::move(guard);
        r.apply = std::move(apply);
        rules.push_back(std::move(r));
    }

    void
    add(const std::string &base, bool mutated, fp::Footprint footprint,
        Trigger trigger,
        std::function<bool(const SystemState &, const Context &)> guard,
        std::function<bool(SystemState &, const Context &)> apply)
    {
        addNamed(base + std::to_string(i + 1), base,
                 {static_cast<std::int8_t>(i), -1, -1}, mutated,
                 footprint, trigger, std::move(guard), std::move(apply));
    }

    /**
     * A rule instantiated per (requester i, snoop target o) pair.
     * Two-device rule sets keep the paper's plain names (the target
     * is determined); larger ones disambiguate with a suffix.
     */
    void
    addPair(const std::string &base, int o, bool mutated,
            fp::Footprint footprint, Trigger trigger,
            std::function<bool(const SystemState &, const Context &)>
                guard,
            std::function<bool(SystemState &, const Context &)> apply)
    {
        std::string name = base + std::to_string(i + 1);
        if (numDevices > 2)
            name += "_s" + std::to_string(o + 1);
        addNamed(std::move(name), base,
                 {static_cast<std::int8_t>(i),
                  static_cast<std::int8_t>(o), -1},
                 mutated, footprint, trigger, std::move(guard),
                 std::move(apply));
    }

    /**
     * A chained-snoop rule instance (requester i, just-collected
     * target o, next target o2); only meaningful with three or more
     * devices, so the suffix is always fully qualified.
     */
    void
    addChained(const std::string &base, int o, int o2, bool mutated,
               fp::Footprint footprint, Trigger trigger,
               std::function<bool(const SystemState &, const Context &)>
                   guard,
               std::function<bool(SystemState &, const Context &)>
                   apply)
    {
        addNamed(base + std::to_string(i + 1) + "_s" +
                     std::to_string(o + 1) + "_n" +
                     std::to_string(o2 + 1),
                 base,
                 {static_cast<std::int8_t>(i),
                  static_cast<std::int8_t>(o),
                  static_cast<std::int8_t>(o2)},
                 mutated, footprint, trigger, std::move(guard),
                 std::move(apply));
    }

    /** Snoop targets: every active device other than the requester. */
    std::vector<int>
    others() const
    {
        std::vector<int> o;
        for (int k = 0; k < numDevices; ++k) {
            if (k != i)
                o.push_back(k);
        }
        return o;
    }
};

/** Push a (GO, target, tid) grant plus its data message to device i. */
bool
pushGrant(SystemState &s, int i, DState target, Tid tid, Val v)
{
    bool ok = s.dev[i].h2dRsp.pushBack({H2DRspOp::GO, target, tid});
    return s.dev[i].h2dData.pushBack({tid, v, 0}) && ok;
}

/** Room for one more response and one more data message to device i. */
bool
grantRoom(const SystemState &s, int i)
{
    return !s.dev[i].h2dRsp.full() && !s.dev[i].h2dData.full();
}

/** Read-request processing (RdShared / RdOwn). */
void
addReadRequestRules(HostRuleBuilder &b, const ProtocolConfig &config)
{
    const int i = b.i;
    const int nd = b.numDevices;
    const bool relax_tailgate = config.relaxGoTailgate;

    auto go_ok = [relax_tailgate](const SystemState &s, int dev) {
        return relax_tailgate || goSendAllowed(s, dev);
    };

    // Shared footprint pieces (see fp::).  go_ok is declared as a
    // read even when the tailgate mutation ignores it — extra reads
    // only cost reduction, never soundness.  A direct grant to
    // requester i reads the directory, the request head, the GO gate
    // and the grant headroom, and writes the directory, the request
    // channel and the grant channels.
    const std::uint32_t grant_reads = fp::kHost | fp::d2hReq(i) |
                                      fp::goSend(i) | fp::grantRoom(i);
    const std::uint32_t grant_writes = fp::kHost | fp::d2hReq(i) |
                                       fp::h2dRsp(i) | fp::h2dData(i);
    const std::uint32_t others_sharer =
        fp::allOthers(i, nd, fp::trackView);

    // Request processing fires from the directory state it is named
    // after, on the request at the head of the requester's d2hReq;
    // a snoop target must be in a state its tracking view can count.
    auto req_in = [i](HState h) {
        return Trigger{}.host(hset({h})).needs(fp::d2hReq(i));
    };

    // Nobody holds the line: grant S directly from memory.
    b.add("HostInvalidRdShared", false, {grant_reads, grant_writes},
        req_in(HState::I),
        [i, go_ok](const SystemState &s, const Context &) {
            return s.hstate == HState::I &&
                   headReqIs(s.dev[i], D2HReqOp::RdShared) &&
                   go_ok(s, i) && grantRoom(s, i);
        },
        [i](SystemState &s, const Context &) {
            Tid t = s.dev[i].d2hReq.front().tid;
            s.dev[i].d2hReq.popFront();
            s.hstate = HState::S;
            return pushGrant(s, i, DState::S, t, s.hval);
        });

    // Sharers already exist: grant another S copy.
    b.add("HostSharedRdShared", false,
        {grant_reads,
         fp::d2hReq(i) | fp::h2dRsp(i) | fp::h2dData(i)},
        req_in(HState::S),
        [i, go_ok](const SystemState &s, const Context &) {
            return s.hstate == HState::S &&
                   headReqIs(s.dev[i], D2HReqOp::RdShared) &&
                   go_ok(s, i) && grantRoom(s, i);
        },
        [i](SystemState &s, const Context &) {
            Tid t = s.dev[i].d2hReq.front().tid;
            s.dev[i].d2hReq.popFront();
            return pushGrant(s, i, DState::S, t, s.hval);
        });

    // Some other device owns the line: snoop it down to S first.
    for (int o : b.others()) {
        b.addPair("HostModifiedRdShared", o, false,
            {fp::kHost | fp::d2hReq(i) | fp::trackView(o) |
                 fp::h2dReq(o),
             fp::kHost | fp::d2hReq(i) | fp::h2dReq(o)},
            req_in(HState::M).dev(o, kOwnerViewStates),
            [i, o](const SystemState &s, const Context &) {
                return s.hstate == HState::M &&
                       headReqIs(s.dev[i], D2HReqOp::RdShared) &&
                       ownerView(s, o) && !s.dev[o].h2dReq.full();
            },
            [i, o](SystemState &s, const Context &) {
                Tid t = s.dev[i].d2hReq.front().tid;
                s.dev[i].d2hReq.popFront();
                s.hstate = HState::SAD;
                s.hreq = asReq(i);
                return s.dev[o].h2dReq.pushBack({H2DReqOp::SnpData, t});
            });

        b.addPair("HostSAD_RspSFwdM", o, false,
            {fp::kHost | fp::d2hRsp(o),
             fp::kHost | fp::d2hRsp(o)},
            Trigger{}.host(hset({HState::SAD})).needs(fp::d2hRsp(o)),
            [i, o](const SystemState &s, const Context &) {
                return s.hstate == HState::SAD && s.hreq == asReq(i) &&
                       headRspIs(s.dev[o], D2HRspOp::RspSFwdM);
            },
            [o](SystemState &s, const Context &) {
                s.dev[o].d2hRsp.popFront();
                s.hstate = HState::SD;
                return true;
            });

        // Forwarded dirty data arrives; memory is updated and the
        // original requester is granted S.
        b.addPair("HostSD_Data", o, false,
            {fp::kHost | fp::d2hData(o) | fp::goSend(i) |
                 fp::grantRoom(i),
             fp::kHost | fp::d2hData(o) | fp::h2dRsp(i) |
                 fp::h2dData(i)},
            Trigger{}.host(hset({HState::SD})).needs(fp::d2hData(o)),
            [i, o, go_ok](const SystemState &s, const Context &) {
                return s.hstate == HState::SD && s.hreq == asReq(i) &&
                       headDataClean(s.dev[o]) && go_ok(s, i) &&
                       grantRoom(s, i);
            },
            [i, o](SystemState &s, const Context &) {
                DataMsg data = s.dev[o].d2hData.front();
                s.dev[o].d2hData.popFront();
                s.hval = data.val;
                s.hstate = HState::S;
                s.hreq = 0;
                return pushGrant(s, i, DState::S, data.tid, data.val);
            });
    }

    // Nobody holds the line: grant ownership directly.
    b.add("HostInvalidRdOwn", false, {grant_reads, grant_writes},
        req_in(HState::I),
        [i, go_ok](const SystemState &s, const Context &) {
            return s.hstate == HState::I &&
                   headReqIs(s.dev[i], D2HReqOp::RdOwn) && go_ok(s, i) &&
                   grantRoom(s, i);
        },
        [i](SystemState &s, const Context &) {
            Tid t = s.dev[i].d2hReq.front().tid;
            s.dev[i].d2hReq.popFront();
            s.hstate = HState::M;
            return pushGrant(s, i, DState::M, t, s.hval);
        });

    // The requester is the sole sharer (an SMAD upgrade): no snoop
    // needed — the shortcut discussed in paper Section 8, with "the
    // other device is no sharer" generalised to all peers.
    b.add("HostSharedRdOwnUpgrade", false,
        {grant_reads | others_sharer, grant_writes}, req_in(HState::S),
        [i, go_ok](const SystemState &s, const Context &) {
            return s.hstate == HState::S &&
                   headReqIs(s.dev[i], D2HReqOp::RdOwn) &&
                   !anyOtherSharer(s, i) && go_ok(s, i) &&
                   grantRoom(s, i);
        },
        [i](SystemState &s, const Context &) {
            Tid t = s.dev[i].d2hReq.front().tid;
            s.dev[i].d2hReq.popFront();
            s.hstate = HState::M;
            return pushGrant(s, i, DState::M, t, s.hval);
        });

    // A clean sharer must be invalidated first.  Data can be sent to
    // the requester immediately (Table 3's SharedRdOwn1 step); the GO
    // follows once every sharer's snoop response has arrived.
    for (int o : b.others()) {
        b.addPair("HostSharedRdOwnSnp", o, false,
            {fp::kHost | fp::d2hReq(i) | fp::trackView(o) |
                 fp::h2dReq(o) | fp::h2dData(i),
             fp::kHost | fp::d2hReq(i) | fp::h2dReq(o) |
                 fp::h2dData(i)},
            req_in(HState::S).dev(o, kSharerViewStates),
            [i, o](const SystemState &s, const Context &) {
                return s.hstate == HState::S &&
                       headReqIs(s.dev[i], D2HReqOp::RdOwn) &&
                       sharerView(s, o) && !s.dev[o].h2dReq.full() &&
                       !s.dev[i].h2dData.full();
            },
            [i, o](SystemState &s, const Context &) {
                Tid t = s.dev[i].d2hReq.front().tid;
                s.dev[i].d2hReq.popFront();
                s.hstate = HState::MA;
                s.hreq = asReq(i);
                bool ok = s.dev[o].h2dReq.pushBack({H2DReqOp::SnpInv, t});
                return s.dev[i].h2dData.pushBack({t, s.hval, 0}) && ok;
            });
    }

    // Clean-sharer invalidation acknowledged.  If no sharer remains,
    // complete the grant (Table 3's MARspIHitI1, with the honest
    // RspIHitSE); the grant additionally waits until stale grant data
    // to any peer has drained (ISDI read-once), so that ownership is
    // never granted while shareable data is still in flight — the
    // paper's first Section 6 sample conjunct.  With more than two
    // devices a further sharer may remain, in which case the next
    // SnpInv is dispatched instead and the host stays in MA.
    auto add_ma_ack = [&](const std::string &base, D2HRspOp rsp,
                          bool mutated) {
        for (int o : b.others()) {
            // The completing acknowledgement quantifies over every
            // peer: anyThirdSharer tracks all k != i, o and
            // otherGrantDataDrained reads h2dData of all k != i.
            const std::uint32_t third_sharer = fp::allOthers(
                i, nd, [o](int k) {
                    return k == o ? 0u : fp::trackView(k);
                });
            const std::uint32_t peer_grant_data =
                fp::allOthers(i, nd, fp::h2dData);
            const Trigger ack_t =
                Trigger{}.host(hset({HState::MA})).needs(fp::d2hRsp(o));
            b.addPair(base, o, mutated,
                {fp::kHost | fp::d2hRsp(o) | third_sharer |
                     peer_grant_data | fp::goSend(i) | fp::h2dRsp(i),
                 fp::kHost | fp::d2hRsp(o) | fp::h2dRsp(i)},
                ack_t,
                [i, o, rsp, go_ok](const SystemState &s,
                                   const Context &) {
                    return s.hstate == HState::MA &&
                           s.hreq == asReq(i) &&
                           headRspIs(s.dev[o], rsp) &&
                           !anyThirdSharer(s, i, o) && go_ok(s, i) &&
                           otherGrantDataDrained(s, i) &&
                           !s.dev[i].h2dRsp.full();
                },
                [i, o](SystemState &s, const Context &) {
                    Tid t = s.dev[o].d2hRsp.front().tid;
                    s.dev[o].d2hRsp.popFront();
                    s.hstate = HState::M;
                    s.hreq = 0;
                    return s.dev[i].h2dRsp.pushBack(
                        {H2DRspOp::GO, DState::M, t});
                });

            // Chained invalidation: another sharer remains, so the
            // collected response triggers the next SnpInv rather than
            // the GO.  Unreachable (and not generated) with fewer
            // than three devices.
            for (int o2 = 0; o2 < b.numDevices; ++o2) {
                if (o2 == i || o2 == o)
                    continue;
                b.addChained(base, o, o2, mutated,
                    {fp::kHost | fp::d2hRsp(o) | fp::trackView(o2) |
                         fp::h2dReq(o2),
                     fp::d2hRsp(o) | fp::h2dReq(o2)},
                    ack_t.dev(o2, kSharerViewStates),
                    [i, o, o2, rsp](const SystemState &s,
                                    const Context &) {
                        return s.hstate == HState::MA &&
                               s.hreq == asReq(i) &&
                               headRspIs(s.dev[o], rsp) &&
                               sharerView(s, o2) &&
                               !s.dev[o2].h2dReq.full();
                    },
                    [o, o2](SystemState &s, const Context &) {
                        Tid t = s.dev[o].d2hRsp.front().tid;
                        s.dev[o].d2hRsp.popFront();
                        return s.dev[o2].h2dReq.pushBack(
                            {H2DReqOp::SnpInv, t});
                    });
            }
        }
    };
    add_ma_ack("HostMA_RspIHitSE", D2HRspOp::RspIHitSE, false);
    // Only reachable when a mutated device lies with RspIHitI.
    add_ma_ack("HostMA_RspIHitI", D2HRspOp::RspIHitI, false);

    // Some other device owns the line dirty: invalidate and collect.
    for (int o : b.others()) {
        b.addPair("HostModifiedRdOwn", o, false,
            {fp::kHost | fp::d2hReq(i) | fp::trackView(o) |
                 fp::h2dReq(o),
             fp::kHost | fp::d2hReq(i) | fp::h2dReq(o)},
            req_in(HState::M).dev(o, kOwnerViewStates),
            [i, o](const SystemState &s, const Context &) {
                return s.hstate == HState::M &&
                       headReqIs(s.dev[i], D2HReqOp::RdOwn) &&
                       ownerView(s, o) && !s.dev[o].h2dReq.full();
            },
            [i, o](SystemState &s, const Context &) {
                Tid t = s.dev[i].d2hReq.front().tid;
                s.dev[i].d2hReq.popFront();
                s.hstate = HState::MAD;
                s.hreq = asReq(i);
                return s.dev[o].h2dReq.pushBack({H2DReqOp::SnpInv, t});
            });

        b.addPair("HostMAD_RspIFwdM", o, false,
            {fp::kHost | fp::d2hRsp(o),
             fp::kHost | fp::d2hRsp(o)},
            Trigger{}.host(hset({HState::MAD})).needs(fp::d2hRsp(o)),
            [i, o](const SystemState &s, const Context &) {
                return s.hstate == HState::MAD && s.hreq == asReq(i) &&
                       headRspIs(s.dev[o], D2HRspOp::RspIFwdM);
            },
            [o](SystemState &s, const Context &) {
                s.dev[o].d2hRsp.popFront();
                s.hstate = HState::MD;
                return true;
            });

        b.addPair("HostMD_Data", o, false,
            {fp::kHost | fp::d2hData(o) | fp::goSend(i) |
                 fp::grantRoom(i),
             fp::kHost | fp::d2hData(o) | fp::h2dRsp(i) |
                 fp::h2dData(i)},
            Trigger{}.host(hset({HState::MD})).needs(fp::d2hData(o)),
            [i, o, go_ok](const SystemState &s, const Context &) {
                return s.hstate == HState::MD && s.hreq == asReq(i) &&
                       headDataClean(s.dev[o]) && go_ok(s, i) &&
                       grantRoom(s, i);
            },
            [i, o](SystemState &s, const Context &) {
                DataMsg data = s.dev[o].d2hData.front();
                s.dev[o].d2hData.popFront();
                s.hval = data.val;
                s.hstate = HState::M;
                s.hreq = 0;
                return pushGrant(s, i, DState::M, data.tid, data.val);
            });
    }
}

/** Eviction processing. */
void
addEvictionRules(HostRuleBuilder &b, const ProtocolConfig &config)
{
    const int i = b.i;
    const int nd = b.numDevices;
    const bool relax_tailgate = config.relaxGoTailgate;
    const bool stale_drop = config.staleEvictDrop;

    auto go_ok = [relax_tailgate](const SystemState &s, int dev) {
        return relax_tailgate || goSendAllowed(s, dev);
    };

    auto push_go = [](SystemState &s, int dev, H2DRspOp op, Tid t) {
        return s.dev[dev].h2dRsp.pushBack({op, DState::I, t});
    };

    // Eviction processing reads the request head, the evicting
    // device's core (its cacheline state gates the flavour) and the
    // GO gate, and answers on h2dRsp; the apply also clears the
    // device buffer (core).
    const std::uint32_t evict_reads = fp::d2hReq(i) | fp::core(i) |
                                      fp::goSend(i) | fp::h2dRsp(i);
    const std::uint32_t evict_writes =
        fp::d2hReq(i) | fp::core(i) | fp::h2dRsp(i);
    const std::uint32_t others_sharer =
        fp::allOthers(i, nd, fp::trackView);

    // Eviction processing needs the request queued and the evicting
    // line in the state the flavour names; writeback collection needs
    // the data queued and the directory in the collecting state.
    auto evict_in = [i](DState st) {
        return Trigger{}.dev(i, dset({st})).needs(fp::d2hReq(i));
    };
    auto data_in = [i](HState h) {
        return Trigger{}.host(hset({h})).needs(fp::d2hData(i));
    };

    // Paper Fig. 4's HostModifiedDirtyEvict1: pull the dirty line.
    b.add("HostModifiedDirtyEvict", false,
        {fp::kHost | evict_reads, fp::kHost | evict_writes},
        evict_in(DState::MIA).host(hset({HState::M})),
        [i, go_ok](const SystemState &s, const Context &) {
            return s.hstate == HState::M &&
                   headReqIs(s.dev[i], D2HReqOp::DirtyEvict) &&
                   s.dev[i].state == DState::MIA && go_ok(s, i) &&
                   !s.dev[i].h2dRsp.full();
        },
        [i, push_go](SystemState &s, const Context &) {
            Tid t = s.dev[i].d2hReq.front().tid;
            s.dev[i].d2hReq.popFront();
            s.hstate = HState::ID;
            s.hreq = asReq(i);
            s.dev[i].buffer = DBuffer::empty();
            return push_go(s, i, H2DRspOp::GO_WritePull, t);
        });

    // Writeback data lands: memory updated, line dead (Table 2's
    // IDData1 step).
    b.add("HostID_Data", false,
        {fp::kHost | fp::d2hData(i), fp::kHost | fp::d2hData(i)},
        data_in(HState::ID),
        [i](const SystemState &s, const Context &) {
            return s.hstate == HState::ID && s.hreq == asReq(i) &&
                   headDataClean(s.dev[i]);
        },
        [i](SystemState &s, const Context &) {
            s.hval = s.dev[i].d2hData.front().val;
            s.dev[i].d2hData.popFront();
            s.hstate = HState::I;
            s.hreq = 0;
            return true;
        });

    // Clean-evict data pull completes; host remains a sharer.
    b.add("HostSB_Data", false,
        {fp::kHost | fp::d2hData(i), fp::kHost | fp::d2hData(i)},
        data_in(HState::SB),
        [i](const SystemState &s, const Context &) {
            return s.hstate == HState::SB && s.hreq == asReq(i) &&
                   headDataClean(s.dev[i]);
        },
        [i](SystemState &s, const Context &) {
            s.hval = s.dev[i].d2hData.front().val;
            s.dev[i].d2hData.popFront();
            s.hstate = HState::S;
            s.hreq = 0;
            return true;
        });

    /**
     * Clean evictions (CleanEvict from SIA, CleanEvictNoData from
     * SIAC, and a DirtyEvict whose line a SnpData has already cleaned
     * to SIA).  "Last" means no other sharer remains, in which case
     * the directory drops to I (Table 1's NotLastDrop naming).
     */
    struct CleanFlavor {
        const char *base;
        D2HReqOp req;
        DState devState;
        bool allowPull;
    };
    const CleanFlavor flavors[] = {
        {"HostSharedCleanEvict", D2HReqOp::CleanEvict, DState::SIA,
         config.hostCleanPull},
        {"HostSharedCleanEvictNoData", D2HReqOp::CleanEvictNoData,
         DState::SIAC, false},
        {"HostDirtyEvictCleaned", D2HReqOp::DirtyEvict, DState::SIA,
         !stale_drop},
    };

    for (const CleanFlavor &f : flavors) {
        const D2HReqOp req = f.req;
        const DState dev_state = f.devState;

        const Trigger clean_t =
            evict_in(dev_state).host(hset({HState::S}));
        auto guard_common = [i, req, dev_state,
                             go_ok](const SystemState &s) {
            return s.hstate == HState::S && headReqIs(s.dev[i], req) &&
                   s.dev[i].state == dev_state && go_ok(s, i) &&
                   !s.dev[i].h2dRsp.full();
        };

        b.add(std::string(f.base) + "NotLastDrop", false,
            {fp::kHost | evict_reads | others_sharer, evict_writes},
            clean_t,
            [i, guard_common](const SystemState &s, const Context &) {
                return guard_common(s) && anyOtherSharer(s, i);
            },
            [i, push_go](SystemState &s, const Context &) {
                Tid t = s.dev[i].d2hReq.front().tid;
                s.dev[i].d2hReq.popFront();
                s.dev[i].buffer = DBuffer::empty();
                return push_go(s, i, H2DRspOp::GO_WritePullDrop, t);
            });

        b.add(std::string(f.base) + "LastDrop", false,
            {fp::kHost | evict_reads | others_sharer,
             fp::kHost | evict_writes},
            clean_t,
            [i, guard_common](const SystemState &s, const Context &) {
                return guard_common(s) && !anyOtherSharer(s, i);
            },
            [i, push_go](SystemState &s, const Context &) {
                Tid t = s.dev[i].d2hReq.front().tid;
                s.dev[i].d2hReq.popFront();
                s.dev[i].buffer = DBuffer::empty();
                s.hstate = HState::I;
                return push_go(s, i, H2DRspOp::GO_WritePullDrop, t);
            });

        if (!f.allowPull)
            continue;

        b.add(std::string(f.base) + "NotLastPull", false,
            {fp::kHost | evict_reads | others_sharer,
             fp::kHost | evict_writes},
            clean_t,
            [i, guard_common](const SystemState &s, const Context &) {
                return guard_common(s) && anyOtherSharer(s, i);
            },
            [i, push_go](SystemState &s, const Context &) {
                Tid t = s.dev[i].d2hReq.front().tid;
                s.dev[i].d2hReq.popFront();
                s.dev[i].buffer = DBuffer::empty();
                s.hstate = HState::SB;
                s.hreq = asReq(i);
                return push_go(s, i, H2DRspOp::GO_WritePull, t);
            });

        b.add(std::string(f.base) + "LastPull", false,
            {fp::kHost | evict_reads | others_sharer,
             fp::kHost | evict_writes},
            clean_t,
            [i, guard_common](const SystemState &s, const Context &) {
                return guard_common(s) && !anyOtherSharer(s, i);
            },
            [i, push_go](SystemState &s, const Context &) {
                Tid t = s.dev[i].d2hReq.front().tid;
                s.dev[i].d2hReq.popFront();
                s.dev[i].buffer = DBuffer::empty();
                s.hstate = HState::ID;
                s.hreq = asReq(i);
                return push_go(s, i, H2DRspOp::GO_WritePull, t);
            });
    }

    /**
     * Stale evictions: a snoop already invalidated the evicting line
     * (device sits in IIA).  Standard behaviour pulls and receives
     * Bogus data; the paper's Section 4.4 proposal drops instead.
     */
    auto add_stale = [&](const char *base, D2HReqOp req) {
        // CleanEvictNoData promised no data: always drop.
        const bool drop_legal =
            stale_drop || req == D2HReqOp::CleanEvictNoData;
        const bool pull_legal =
            !stale_drop && req != D2HReqOp::CleanEvictNoData;

        if (drop_legal) {
            b.add(std::string(base) + "Drop", false,
                {evict_reads, evict_writes}, evict_in(DState::IIA),
                [i, req, go_ok](const SystemState &s, const Context &) {
                    return headReqIs(s.dev[i], req) &&
                           s.dev[i].state == DState::IIA && go_ok(s, i) &&
                           !s.dev[i].h2dRsp.full();
                },
                [i, push_go](SystemState &s, const Context &) {
                    Tid t = s.dev[i].d2hReq.front().tid;
                    s.dev[i].d2hReq.popFront();
                    s.dev[i].buffer = DBuffer::empty();
                    return push_go(s, i, H2DRspOp::GO_WritePullDrop, t);
                });
        }

        if (pull_legal) {
            b.add(std::string(base) + "Pull", false,
                {evict_reads, evict_writes}, evict_in(DState::IIA),
                [i, req, go_ok](const SystemState &s, const Context &) {
                    return headReqIs(s.dev[i], req) &&
                           s.dev[i].state == DState::IIA && go_ok(s, i) &&
                           !s.dev[i].h2dRsp.full();
                },
                [i, push_go](SystemState &s, const Context &) {
                    Tid t = s.dev[i].d2hReq.front().tid;
                    s.dev[i].d2hReq.popFront();
                    s.dev[i].buffer = DBuffer::empty();
                    return push_go(s, i, H2DRspOp::GO_WritePull, t);
                });
        }
    };
    add_stale("HostStaleCleanEvict", D2HReqOp::CleanEvict);
    add_stale("HostStaleCleanEvictNoData", D2HReqOp::CleanEvictNoData);
    add_stale("HostStaleDirtyEvict", D2HReqOp::DirtyEvict);

    // Bogus-flagged eviction data is discarded (CXL 3.1 S3.2.5.4).
    b.add("HostBogusData", false,
        {fp::d2hData(i), fp::d2hData(i)},
        Trigger{}.needs(fp::d2hData(i)),
        [i](const SystemState &s, const Context &) {
            return !s.dev[i].d2hData.empty() &&
                   s.dev[i].d2hData.front().bogus;
        },
        [i](SystemState &s, const Context &) {
            s.dev[i].d2hData.popFront();
            return true;
        });
}

/** Mutation-only host rules (Section 5.2 relaxations). */
void
addMutatedHostRules(HostRuleBuilder &b, const ProtocolConfig &config)
{
    const int i = b.i;

    if (config.relaxGoTailgate) {
        // The GO tailgates the snoop it depends on: sent in the same
        // step, before any response is collected.
        for (int o : b.others()) {
            b.addPair("HostEagerGoRdOwn", o, true,
                {fp::kHost | fp::d2hReq(i) | fp::trackView(o) |
                     fp::h2dReq(o) | fp::grantRoom(i),
                 fp::kHost | fp::d2hReq(i) | fp::h2dReq(o) |
                     fp::h2dRsp(i) | fp::h2dData(i)},
                Trigger{}
                    .host(hset({HState::S}))
                    .dev(o, kSharerViewStates)
                    .needs(fp::d2hReq(i)),
                [i, o](const SystemState &s, const Context &) {
                    return s.hstate == HState::S &&
                           headReqIs(s.dev[i], D2HReqOp::RdOwn) &&
                           sharerView(s, o) &&
                           !s.dev[o].h2dReq.full() && grantRoom(s, i);
                },
                [i, o](SystemState &s, const Context &) {
                    Tid t = s.dev[i].d2hReq.front().tid;
                    s.dev[i].d2hReq.popFront();
                    s.hstate = HState::M;
                    bool ok =
                        s.dev[o].h2dReq.pushBack({H2DReqOp::SnpInv, t});
                    return pushGrant(s, i, DState::M, t, s.hval) && ok;
                });
        }
    }

    if (config.relaxOneSnoop) {
        // A second snoop is dispatched before the response to the
        // first is collected (violates CXL 3.1 Section 3.2.5.5).
        for (int o : b.others()) {
            b.addPair("HostSecondSnoop", o, true,
                {fp::kHost | fp::h2dReq(o) | fp::kCounter,
                 fp::kCounter | fp::h2dReq(o)},
                Trigger{}
                    .host(hset({HState::MA, HState::MAD}))
                    .needs(fp::h2dReq(o)),
                [i, o](const SystemState &s, const Context &) {
                    return (s.hstate == HState::MA ||
                            s.hstate == HState::MAD) &&
                           s.hreq == asReq(i) &&
                           s.dev[o].h2dReq.size() == 1 &&
                           s.counter < 250;
                },
                [o](SystemState &s, const Context &) {
                    Tid t = s.counter;
                    s.counter = static_cast<std::uint8_t>(s.counter + 1);
                    return s.dev[o].h2dReq.pushBack(
                        {H2DReqOp::SnpInv, t});
                });
        }
    }
}

} // namespace

void
addHostRules(std::vector<Rule> &rules, int d, const ProtocolConfig &config,
             int num_devices)
{
    assert(d >= 0 && d < num_devices && num_devices <= kMaxDevices);
    HostRuleBuilder b{rules, d, num_devices};
    addReadRequestRules(b, config);
    addEvictionRules(b, config);
    addMutatedHostRules(b, config);
}

} // namespace cxl
