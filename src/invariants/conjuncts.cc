/**
 * @file
 * Definitions of all invariant conjunct families.
 *
 * Every conjunct is justified by a protocol argument (in its
 * description) and empirically validated by exhaustive reachability:
 * the checker evaluates each one on every reachable state of the
 * correct model.  The iterative process that produced this set —
 * add a conjunct, find the rule that breaks it, refine — is the same
 * loop the paper describes in Section 7.1.
 */

#include "invariants/invariant.hh"

#include <algorithm>

namespace cxl
{
namespace
{

// ---- small state predicates ----------------------------------------

bool
inSet(DState s, std::initializer_list<DState> set)
{
    return std::find(set.begin(), set.end(), s) != set.end();
}

bool
inSet(HState s, std::initializer_list<HState> set)
{
    return std::find(set.begin(), set.end(), s) != set.end();
}

/** Any GO-class message with the given opcode in a response channel. */
bool
hasRsp(const DeviceState &d, H2DRspOp op)
{
    for (const H2DRsp &m : d.h2dRsp) {
        if (m.op == op)
            return true;
    }
    return false;
}

/** A GO grant with the given target state is in flight to device d. */
bool
hasGoTo(const DeviceState &d, DState target)
{
    for (const H2DRsp &m : d.h2dRsp) {
        if (m.op == H2DRspOp::GO && m.target == target)
            return true;
    }
    return false;
}

bool
hasCleanData(const DeviceState &d)
{
    for (const DataMsg &m : d.d2hData) {
        if (!m.bogus)
            return true;
    }
    return false;
}

bool
hasBogusData(const DeviceState &d)
{
    for (const DataMsg &m : d.d2hData) {
        if (m.bogus)
            return true;
    }
    return false;
}

/** "Almost modified": the ownership grant can no longer be revoked. */
bool
almostM(const DeviceState &d)
{
    if (inSet(d.state, {DState::IMD, DState::SMD}))
        return true;
    return inSet(d.state,
                 {DState::IMAD, DState::SMAD, DState::IMA, DState::SMA}) &&
           hasGoTo(d, DState::M);
}

/** The device states almostM() can hold in. */
constexpr std::uint32_t kAlmostMStates =
    dset({DState::IMD, DState::SMD, DState::IMAD, DState::SMAD, DState::IMA,
          DState::SMA});

/** Host states with a snoop outstanding. */
constexpr std::uint32_t kSnoopingHStates =
    hset({HState::SAD, HState::MAD, HState::MA});

/**
 * True for every active device index other than @p i for which
 * @p pred fails; i.e. "for all other devices o: pred(o)".
 */
template <typename Pred>
bool
forAllOthers(const SystemState &s, int i, Pred pred)
{
    for (int o = 0; o < s.ndev; ++o) {
        if (o != i && !pred(o))
            return false;
    }
    return true;
}

struct ConjunctBuilder {
    std::vector<Conjunct> conjuncts;
    int numDevices = kDefaultNumDevices;

    void
    add(const std::string &name, const std::string &family,
        const std::string &description, Trigger trigger,
        std::function<bool(const SystemState &, const Context &)> holds)
    {
        Conjunct c;
        c.id = static_cast<std::uint16_t>(conjuncts.size());
        c.name = name;
        c.family = family;
        c.description = description;
        c.trigger = trigger;
        c.holds = std::move(holds);
        conjuncts.push_back(std::move(c));
    }

    /**
     * Instantiate a per-device conjunct for every active device;
     * @p trigger_of(d) is the failure trigger of device d's instance.
     */
    void
    addPerDevice(const std::string &base, const std::string &family,
                 const std::string &description, Trigger (*trigger_of)(int),
                 std::function<bool(const SystemState &, int,
                                    const Context &)> holds)
    {
        for (int d = 0; d < numDevices; ++d) {
            add(base + "_d" + std::to_string(d + 1), family, description,
                trigger_of(d),
                [holds, d](const SystemState &s, const Context &ctx) {
                    return holds(s, d, ctx);
                });
        }
    }
};

void
addSwmrFamily(ConjunctBuilder &b)
{
    b.addPerDevice("swmr", "swmr",
        "Definition 6.1: if this device has write access, no other "
        "device has read or write access.",
        [](int i) { return Trigger{}.dev(i, dset({DState::M})); },
        [](const SystemState &s, int i, const Context &) {
            if (!hasWriteAccess(s.dev[i].state))
                return true;
            return forAllOthers(s, i, [&s](int o) {
                return !hasReadAccess(s.dev[o].state);
            });
        });
}

void
addTransientSwmrFamily(ConjunctBuilder &b)
{
    // Paper Section 6, first sample conjunct: transient states need
    // SWMR-like constraints too.
    b.addPerDevice("transient_swmr", "transient_swmr",
        "If this device is almost-M (grant no longer revocable), every "
        "other device either has a SnpInv heading to it, or holds "
        "nothing valid with nothing valid in flight to it.",
        [](int i) { return Trigger{}.dev(i, kAlmostMStates); },
        [](const SystemState &s, int i, const Context &) {
            if (!almostM(s.dev[i]))
                return true;
            return forAllOthers(s, i, [&s](int o) {
                const DeviceState &d_o = s.dev[o];
                bool snoop_coming =
                    !d_o.h2dReq.empty() &&
                    d_o.h2dReq.front().op == H2DReqOp::SnpInv;
                if (snoop_coming)
                    return true;
                return !inSet(d_o.state,
                              {DState::ISD, DState::IMD, DState::SMD,
                               DState::ISA, DState::IMA, DState::SMA,
                               DState::S, DState::M}) &&
                       d_o.h2dData.empty() &&
                       (!inSet(d_o.state, {DState::ISAD, DState::IMAD,
                                           DState::SMAD}) ||
                        d_o.h2dRsp.empty());
            });
        });

    b.addPerDevice("single_owner_grant", "transient_swmr",
        "At most one device is almost-M at a time.",
        [](int i) { return Trigger{}.dev(i, kAlmostMStates); },
        [](const SystemState &s, int i, const Context &) {
            if (!almostM(s.dev[i]))
                return true;
            return forAllOthers(s, i, [&s](int o) {
                return !almostM(s.dev[o]);
            });
        });
}

void
addSnoopHonestyFamily(ConjunctBuilder &b)
{
    // Paper Section 6, second sample conjunct.
    b.addPerDevice("snoop_honest_inv", "snoop_honesty",
        "A device reporting an invalidating snoop response really is "
        "in an invalid-side state.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::I, DState::ISDI, DState::ISAD,
                               DState::IMAD, DState::IIA}))
                .needs(fp::d2hRsp(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hRsp.empty())
                return true;
            D2HRspOp op = d.d2hRsp.front().op;
            if (op != D2HRspOp::RspIFwdM && op != D2HRspOp::RspIHitSE)
                return true;
            return inSet(d.state, {DState::I, DState::ISDI, DState::ISAD,
                                   DState::IMAD, DState::IIA});
        });

    b.addPerDevice("snoop_honest_shared", "snoop_honesty",
        "A device reporting RspSFwdM really downgraded to a "
        "shared-side state.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::S, DState::SIA, DState::SIAC,
                               DState::SMAD}))
                .needs(fp::d2hRsp(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hRsp.empty() ||
                d.d2hRsp.front().op != D2HRspOp::RspSFwdM) {
                return true;
            }
            return inSet(d.state, {DState::S, DState::SIA, DState::SIAC,
                                   DState::SMAD});
        });
}

void
addChannelShapeFamily(ConjunctBuilder &b)
{
    // Paper Section 6, third sample conjunct: with a single location
    // every channel holds at most one message.
    struct Chan {
        const char *name;
        std::function<std::size_t(const DeviceState &)> len;
        Trigger (*nonEmpty)(int);
    };
    const Chan chans[] = {
        {"d2h_req", [](const DeviceState &d) { return d.d2hReq.size(); },
         [](int i) { return Trigger{}.needs(fp::d2hReq(i)); }},
        {"d2h_rsp", [](const DeviceState &d) { return d.d2hRsp.size(); },
         [](int i) { return Trigger{}.needs(fp::d2hRsp(i)); }},
        {"d2h_data",
         [](const DeviceState &d) { return d.d2hData.size(); },
         [](int i) { return Trigger{}.needs(fp::d2hData(i)); }},
        {"h2d_req", [](const DeviceState &d) { return d.h2dReq.size(); },
         [](int i) { return Trigger{}.needs(fp::h2dReq(i)); }},
        {"h2d_rsp", [](const DeviceState &d) { return d.h2dRsp.size(); },
         [](int i) { return Trigger{}.needs(fp::h2dRsp(i)); }},
        {"h2d_data",
         [](const DeviceState &d) { return d.h2dData.size(); },
         [](int i) { return Trigger{}.needs(fp::h2dData(i)); }},
    };
    for (const Chan &chan : chans) {
        auto len = chan.len;
        // More than one message needs at least one.
        b.addPerDevice(std::string("singleton_") + chan.name,
            "channel_singleton",
            "Channels are singleton lists (single-location model).",
            chan.nonEmpty,
            [len](const SystemState &s, int i, const Context &) {
                return len(s.dev[i]) <= 1;
            });
    }

    b.add("one_snoop_total", "channel_singleton",
        "The host has at most one snoop outstanding in the whole "
        "system (CXL 3.1 S3.2.5.5 plus single-transaction host).",
        Trigger{},
        [](const SystemState &s, const Context &) {
            std::size_t total = 0;
            for (int i = 0; i < s.ndev; ++i)
                total += s.dev[i].h2dReq.size();
            return total <= 1;
        });
}

void
addDataConflictFamily(ConjunctBuilder &b)
{
    // Paper Section 6, fourth sample conjunct.
    b.addPerDevice("data_no_conflict", "data_conflict",
        "Host and device data channels must not conflict: writeback "
        "data from one device and grant data to another are never "
        "simultaneously in flight.",
        [](int i) { return Trigger{}.needs(fp::d2hData(i)); },
        [](const SystemState &s, int i, const Context &) {
            if (!hasCleanData(s.dev[i]))
                return true;
            return forAllOthers(s, i, [&s](int o) {
                return s.dev[o].h2dData.empty();
            });
        });
}

void
addDirectoryFamily(ConjunctBuilder &b)
{
    b.add("dir_m_owner", "directory",
        "HCache=M implies exactly one device is (being made) owner.",
        Trigger{}.host(hset({HState::M})),
        [](const SystemState &s, const Context &) {
            if (s.hstate != HState::M)
                return true;
            int owners = 0;
            for (int i = 0; i < s.ndev; ++i)
                owners += ownerView(s, i) ? 1 : 0;
            return owners == 1;
        });

    b.add("dir_s_no_owner", "directory",
        "HCache=S implies no device is (being made) owner.",
        Trigger{}.host(hset({HState::S})),
        [](const SystemState &s, const Context &) {
            if (s.hstate != HState::S)
                return true;
            for (int i = 0; i < s.ndev; ++i) {
                if (ownerView(s, i))
                    return false;
            }
            return true;
        });

    b.add("dir_s_some_sharer", "directory",
        "HCache=S implies at least one device is (being made) sharer.",
        Trigger{}.host(hset({HState::S})),
        [](const SystemState &s, const Context &) {
            if (s.hstate != HState::S)
                return true;
            for (int i = 0; i < s.ndev; ++i) {
                if (sharerView(s, i))
                    return true;
            }
            return false;
        });

    b.addPerDevice("dir_i_nothing_valid", "directory",
        "HCache=I implies no device holds or is being granted the "
        "line.",
        [](int i) {
            return Trigger{}
                .host(hset({HState::I}))
                .dev(i, dset({DState::S, DState::M, DState::ISD, DState::ISA,
                              DState::IMD, DState::IMA, DState::SMD,
                              DState::SMA, DState::SMAD}));
        },
        [](const SystemState &s, int i, const Context &) {
            if (s.hstate != HState::I)
                return true;
            return !inSet(s.dev[i].state,
                          {DState::S, DState::M, DState::ISD, DState::ISA,
                           DState::IMD, DState::IMA, DState::SMD,
                           DState::SMA, DState::SMAD});
        });

    b.addPerDevice("dir_i_no_grant", "directory",
        "HCache=I implies no ownership or share grant (GO or its data) "
        "is in flight; only an ISDI read-once datum may linger.",
        [](int) { return Trigger{}.host(hset({HState::I})); },
        [](const SystemState &s, int i, const Context &) {
            if (s.hstate != HState::I)
                return true;
            if (hasGoTo(s.dev[i], DState::S) ||
                hasGoTo(s.dev[i], DState::M)) {
                return false;
            }
            return s.dev[i].h2dData.empty() ||
                   s.dev[i].state == DState::ISDI;
        });
}

void
addHostTransientFamily(ConjunctBuilder &b)
{
    b.addPerDevice("rsp_needs_host_transient", "host_transient",
        "A pending snoop response implies the host is mid-transaction "
        "in a snooping state.",
        [](int i) {
            return Trigger{}.host(~kSnoopingHStates).needs(fp::d2hRsp(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (s.dev[i].d2hRsp.empty())
                return true;
            return inSet(s.hstate, {HState::SAD, HState::MAD, HState::MA});
        });

    b.addPerDevice("snoop_needs_host_transient", "host_transient",
        "An outstanding snoop implies the host is mid-transaction in a "
        "snooping state.",
        [](int i) {
            return Trigger{}.host(~kSnoopingHStates).needs(fp::h2dReq(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (s.dev[i].h2dReq.empty())
                return true;
            return inSet(s.hstate, {HState::SAD, HState::MAD, HState::MA});
        });

    b.add("host_id_progress", "host_transient",
        "HCache=ID implies a write-pull or its writeback is in flight.",
        Trigger{}.host(hset({HState::ID})),
        [](const SystemState &s, const Context &) {
            if (s.hstate != HState::ID)
                return true;
            for (int i = 0; i < s.ndev; ++i) {
                if (hasRsp(s.dev[i], H2DRspOp::GO_WritePull) ||
                    hasCleanData(s.dev[i])) {
                    return true;
                }
            }
            return false;
        });

    b.add("host_sb_progress", "host_transient",
        "HCache=SB implies a clean-data pull or its data is in flight.",
        Trigger{}.host(hset({HState::SB})),
        [](const SystemState &s, const Context &) {
            if (s.hstate != HState::SB)
                return true;
            for (int i = 0; i < s.ndev; ++i) {
                if (hasRsp(s.dev[i], H2DRspOp::GO_WritePull) ||
                    hasCleanData(s.dev[i])) {
                    return true;
                }
            }
            return false;
        });
}

void
addMessageShapeFamily(ConjunctBuilder &b)
{
    b.addPerDevice("grant_data_expected", "message_shape",
        "Grant data in flight only to a device in a state that awaits "
        "it.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::ISAD, DState::ISD, DState::IMAD,
                               DState::IMD, DState::SMAD, DState::SMD,
                               DState::ISDI}))
                .needs(fp::h2dData(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (s.dev[i].h2dData.empty())
                return true;
            return inSet(s.dev[i].state,
                         {DState::ISAD, DState::ISD, DState::IMAD,
                          DState::IMD, DState::SMAD, DState::SMD,
                          DState::ISDI});
        });

    b.addPerDevice("writepull_target", "message_shape",
        "GO_WritePull only travels to an evicting line.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::MIA, DState::SIA, DState::IIA}))
                .needs(fp::h2dRsp(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (!hasRsp(s.dev[i], H2DRspOp::GO_WritePull))
                return true;
            return inSet(s.dev[i].state,
                         {DState::MIA, DState::SIA, DState::IIA});
        });

    b.addPerDevice("writepulldrop_target", "message_shape",
        "GO_WritePullDrop only travels to a clean or dead evicting "
        "line.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::SIA, DState::SIAC, DState::IIA}))
                .needs(fp::h2dRsp(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (!hasRsp(s.dev[i], H2DRspOp::GO_WritePullDrop))
                return true;
            return inSet(s.dev[i].state,
                         {DState::SIA, DState::SIAC, DState::IIA});
        });

    b.addPerDevice("go_share_target", "message_shape",
        "A GO-S grant only travels to a device upgrading to S.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::ISAD, DState::ISA}))
                .needs(fp::h2dRsp(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (!hasGoTo(s.dev[i], DState::S))
                return true;
            return inSet(s.dev[i].state, {DState::ISAD, DState::ISA});
        });

    b.addPerDevice("go_own_target", "message_shape",
        "A GO-M grant only travels to a device upgrading to M.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::IMAD, DState::IMA, DState::SMAD,
                               DState::SMA}))
                .needs(fp::h2dRsp(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (!hasGoTo(s.dev[i], DState::M))
                return true;
            return inSet(s.dev[i].state, {DState::IMAD, DState::IMA,
                                          DState::SMAD, DState::SMA});
        });

    b.addPerDevice("bogus_provenance", "message_shape",
        "Bogus data only follows a snoop-killed eviction; while it "
        "lingers the device can re-request (GO-class grants to it are "
        "gated on the drained channel, so it gets no further than IMA "
        "via early RdOwn data).",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::I, DState::ISAD, DState::IMAD,
                               DState::IMA}))
                .needs(fp::d2hData(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (!hasBogusData(s.dev[i]))
                return true;
            return inSet(s.dev[i].state,
                         {DState::I, DState::ISAD, DState::IMAD,
                          DState::IMA});
        });

    b.addPerDevice("clean_data_destination", "message_shape",
        "Writeback/forward data in flight implies the host is in a "
        "state that will consume it.",
        [](int i) {
            return Trigger{}
                .host(~hset({HState::SAD, HState::SD, HState::MAD,
                             HState::MD, HState::ID, HState::SB}))
                .needs(fp::d2hData(i));
        },
        [](const SystemState &s, int i, const Context &) {
            if (!hasCleanData(s.dev[i]))
                return true;
            return inSet(s.hstate, {HState::SAD, HState::SD, HState::MAD,
                                    HState::MD, HState::ID, HState::SB});
        });
}

void
addRequestStateFamily(ConjunctBuilder &b)
{
    b.addPerDevice("rdshared_state", "request_state",
        "A queued RdShared implies the device waits in ISAD.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::ISAD}))
                .needs(fp::d2hReq(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hReq.empty() ||
                d.d2hReq.front().op != D2HReqOp::RdShared) {
                return true;
            }
            return d.state == DState::ISAD;
        });

    b.addPerDevice("rdown_state", "request_state",
        "A queued RdOwn implies the device waits in IMAD or SMAD.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::IMAD, DState::SMAD}))
                .needs(fp::d2hReq(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hReq.empty() ||
                d.d2hReq.front().op != D2HReqOp::RdOwn) {
                return true;
            }
            return d.state == DState::IMAD || d.state == DState::SMAD;
        });

    b.addPerDevice("cleanevict_state", "request_state",
        "A queued CleanEvict implies the device is in SIA or IIA.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::SIA, DState::IIA}))
                .needs(fp::d2hReq(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hReq.empty() ||
                d.d2hReq.front().op != D2HReqOp::CleanEvict) {
                return true;
            }
            return d.state == DState::SIA || d.state == DState::IIA;
        });

    b.addPerDevice("cleanevictnodata_state", "request_state",
        "A queued CleanEvictNoData implies the device is in SIAC or "
        "IIA.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::SIAC, DState::IIA}))
                .needs(fp::d2hReq(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hReq.empty() ||
                d.d2hReq.front().op != D2HReqOp::CleanEvictNoData) {
                return true;
            }
            return d.state == DState::SIAC || d.state == DState::IIA;
        });

    b.addPerDevice("dirtyevict_state", "request_state",
        "A queued DirtyEvict implies the device is in MIA, or was "
        "downgraded to SIA by a SnpData, or killed to IIA by a SnpInv.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::MIA, DState::SIA, DState::IIA}))
                .needs(fp::d2hReq(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hReq.empty() ||
                d.d2hReq.front().op != D2HReqOp::DirtyEvict) {
                return true;
            }
            return inSet(d.state, {DState::MIA, DState::SIA, DState::IIA});
        });
}

void
addOrderingFamily(ConjunctBuilder &b)
{
    // Iteration-2 conjuncts: added after the obligation matrix showed
    // the first 70 conjuncts are not inductive (the Section 7.1 loop).

    b.addPerDevice("req_before_grant", "ordering",
        "A device's queued request has not been processed, so no "
        "response or data can already be in flight to it.",
        [](int i) { return Trigger{}.needs(fp::d2hReq(i)); },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hReq.empty())
                return true;
            return d.h2dRsp.empty() && d.h2dData.empty();
        });

    b.addPerDevice("rsp_after_snoop", "ordering",
        "A device only responds after consuming the snoop, and no "
        "second snoop can be outstanding.",
        [](int i) {
            return Trigger{}.needs(fp::d2hRsp(i) | fp::h2dReq(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hRsp.empty())
                return true;
            return d.h2dReq.empty();
        });

    // Iteration-3 conjuncts (same loop, next round).

    b.addPerDevice("rsp_blocks_grant", "ordering",
        "While a device's snoop response is uncollected, the host "
        "cannot have granted it anything: no GO in flight, and the "
        "only admissible data is an ISDI read-once leftover.",
        [](int i) { return Trigger{}.needs(fp::d2hRsp(i)); },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.d2hRsp.empty())
                return true;
            return d.h2dRsp.empty() &&
                   (d.h2dData.empty() || d.state == DState::ISDI);
        });

    b.addPerDevice("ma_requester_shape", "ordering",
        "In MA/MAD the tracked requester is an ownership requester.",
        [](int i) {
            return Trigger{}
                .host(hset({HState::MA, HState::MAD}))
                .dev(i, ~dset({DState::IMAD, DState::SMAD, DState::IMA,
                               DState::SMA}));
        },
        [](const SystemState &s, int i, const Context &) {
            if (s.hstate != HState::MA && s.hstate != HState::MAD)
                return true;
            if (s.requester() != i)
                return true;
            return inSet(s.dev[i].state, {DState::IMAD, DState::SMAD,
                                          DState::IMA, DState::SMA});
        });

    b.addPerDevice("sad_requester_shape", "ordering",
        "In SAD/SD the tracked requester is a share requester.",
        [](int i) {
            return Trigger{}
                .host(hset({HState::SAD, HState::SD}))
                .dev(i, ~dset({DState::ISAD}));
        },
        [](const SystemState &s, int i, const Context &) {
            if (s.hstate != HState::SAD && s.hstate != HState::SD)
                return true;
            if (s.requester() != i)
                return true;
            return s.dev[i].state == DState::ISAD;
        });
}

void
addProgressFamily(ConjunctBuilder &b)
{
    b.addPerDevice("upgrade_progress", "progress",
        "A device waiting for a grant has its request queued, a grant "
        "in flight, or the host mid-transaction.",
        [](int i) {
            return Trigger{}
                .host(~hset({HState::SAD, HState::SD, HState::MAD,
                             HState::MD, HState::MA}))
                .dev(i, dset({DState::ISAD, DState::IMAD, DState::SMAD}));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (!inSet(d.state,
                       {DState::ISAD, DState::IMAD, DState::SMAD})) {
                return true;
            }
            return !d.d2hReq.empty() || !d.h2dRsp.empty() ||
                   !d.h2dData.empty() ||
                   inSet(s.hstate, {HState::SAD, HState::SD, HState::MAD,
                                    HState::MD, HState::MA});
        });

    b.addPerDevice("evict_progress", "progress",
        "An evicting device has its request queued or the eviction GO "
        "in flight.",
        [](int i) {
            return Trigger{}.dev(i, dset({DState::MIA, DState::SIA,
                                          DState::SIAC, DState::IIA}));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (!inSet(d.state, {DState::MIA, DState::SIA, DState::SIAC,
                                 DState::IIA})) {
                return true;
            }
            return !d.d2hReq.empty() ||
                   hasRsp(d, H2DRspOp::GO_WritePull) ||
                   hasRsp(d, H2DRspOp::GO_WritePullDrop);
        });
}

void
addBufferFamily(ConjunctBuilder &b)
{
    b.addPerDevice("buffer_snpinv_state", "buffer",
        "A buffered SnpInv persists only while the line stays on the "
        "invalid side (cleared by the completion of the next "
        "transaction).",
        [](int i) {
            return Trigger{}.dev(i, dset({DState::S, DState::M, DState::SMAD,
                                          DState::SMD, DState::SMA,
                                          DState::MIA, DState::SIA,
                                          DState::SIAC}));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (!d.buffer.holdsSnoop(H2DReqOp::SnpInv))
                return true;
            return !inSet(d.state,
                          {DState::S, DState::M, DState::SMAD,
                           DState::SMD, DState::SMA, DState::MIA,
                           DState::SIA, DState::SIAC});
        });
}

void
addDataValueFamily(ConjunctBuilder &b)
{
    // The *data-value invariant* — the second of the two properties
    // that together establish coherence (Nagarajan et al.), which the
    // paper leaves as future work (Section 6).  Our model tracks
    // values, so we can state and exhaustively verify it: every
    // read-accessible copy equals the memory value, and every share
    // grant in flight carries it.

    b.addPerDevice("shared_value_current", "data_value",
        "A shared copy (or one whose grant data has been consumed) "
        "equals the host/memory value — except in the window where "
        "the copy's own forwarded writeback is still in flight, in "
        "which case memory is about to catch up to exactly this "
        "value.",
        [](int i) {
            return Trigger{}.dev(i, dset({DState::S, DState::ISA}));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.state != DState::S && d.state != DState::ISA)
                return true;
            if (d.val == s.hval)
                return true;
            for (const DataMsg &m : d.d2hData) {
                if (!m.bogus && m.val == d.val)
                    return true; // forward in flight; hval catches up
            }
            return false;
        });

    b.addPerDevice("share_grant_value_current", "data_value",
        "Grant data travelling to a share requester carries the "
        "memory value.",
        [](int i) {
            return Trigger{}
                .dev(i, dset({DState::ISAD, DState::ISD}))
                .needs(fp::h2dData(i));
        },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            if (d.h2dData.empty())
                return true;
            if (d.state != DState::ISAD && d.state != DState::ISD)
                return true;
            for (const DataMsg &m : d.h2dData) {
                if (m.val != s.hval)
                    return false;
            }
            return true;
        });

    b.addPerDevice("writeback_value_current", "data_value",
        "A non-bogus writeback or forward in flight carries the "
        "owner's last value, which will become the memory value; the "
        "memory value is never silently ahead of it.",
        [](int i) {
            return Trigger{}
                .dev(i, ~dset({DState::I, DState::ISAD, DState::IMAD,
                               DState::IMA}))
                .needs(fp::d2hData(i));
        },
        [](const SystemState &s, int i, const Context &) {
            // Shape only: forwarded data originates from an M-side
            // line, whose value is by construction the newest write.
            // We check that nothing else can be in the channel.
            const DeviceState &d = s.dev[i];
            for (const DataMsg &m : d.d2hData) {
                if (!m.bogus && m.val != d.val &&
                    !inSet(d.state, {DState::I, DState::ISAD,
                                     DState::IMAD, DState::IMA})) {
                    return false;
                }
            }
            return true;
        });
}

void
addTidFamily(ConjunctBuilder &b)
{
    b.addPerDevice("tid_below_counter", "tid_discipline",
        "Every transaction id in flight was allocated from the "
        "counter.",
        [](int) { return Trigger{}; },
        [](const SystemState &s, int i, const Context &) {
            const DeviceState &d = s.dev[i];
            auto ok = [&s](Tid t) { return t < s.counter; };
            for (const auto &m : d.d2hReq)
                if (!ok(m.tid))
                    return false;
            for (const auto &m : d.d2hRsp)
                if (!ok(m.tid))
                    return false;
            for (const auto &m : d.d2hData)
                if (!ok(m.tid))
                    return false;
            for (const auto &m : d.h2dReq)
                if (!ok(m.tid))
                    return false;
            for (const auto &m : d.h2dRsp)
                if (!ok(m.tid))
                    return false;
            for (const auto &m : d.h2dData)
                if (!ok(m.tid))
                    return false;
            if (!d.buffer.isEmpty() && !ok(d.buffer.tid))
                return false;
            return true;
        });
}

void
addHostTrackingFamily(ConjunctBuilder &b)
{
    // The explicit requester tracking introduced by the N-device
    // generalisation: hreq names the device the in-flight directory
    // transaction serves, exactly while one is in flight.

    b.add("hreq_transient", "host_tracking",
        "The host tracks a requester exactly while the directory is "
        "mid-transaction (hstate transient).",
        Trigger{},
        [](const SystemState &s, const Context &) {
            bool transient = !isStable(s.hstate);
            return transient == (s.hreq != 0);
        });

    b.add("hreq_range", "host_tracking",
        "The tracked requester is an active device.",
        Trigger{},
        [](const SystemState &s, const Context &) {
            return s.hreq <= s.ndev;
        });
}

} // namespace

bool
swmrHolds(const SystemState &s)
{
    for (int i = 0; i < s.ndev; ++i) {
        if (!hasWriteAccess(s.dev[i].state))
            continue;
        for (int o = 0; o < s.ndev; ++o) {
            if (o != i && hasReadAccess(s.dev[o].state))
                return false;
        }
    }
    return true;
}

InvariantSet::InvariantSet(std::vector<Conjunct> conjuncts)
    : conjuncts_(std::move(conjuncts)), triggers_(conjuncts_)
{
}

InvariantSet
InvariantSet::full(const ProtocolConfig &config, int numDevices)
{
    ConjunctBuilder b;
    b.numDevices = numDevices;
    addSwmrFamily(b);
    addTransientSwmrFamily(b);
    addSnoopHonestyFamily(b);
    addChannelShapeFamily(b);
    if (config.staleEvictDrop && !config.hostCleanPull) {
        // The paper's data-channel-conflict conjunct needs the
        // Section 4.4 drop behaviour: a standard-mode bogus writeback
        // can legitimately overlap a grant to the other device.
        addDataConflictFamily(b);
    }
    addDirectoryFamily(b);
    addHostTransientFamily(b);
    addMessageShapeFamily(b);
    addRequestStateFamily(b);
    addOrderingFamily(b);
    addProgressFamily(b);
    addBufferFamily(b);
    addDataValueFamily(b);
    addTidFamily(b);
    addHostTrackingFamily(b);

    // Re-number after conditional families.
    for (std::size_t i = 0; i < b.conjuncts.size(); ++i)
        b.conjuncts[i].id = static_cast<std::uint16_t>(i);
    return InvariantSet(std::move(b.conjuncts));
}

InvariantSet
InvariantSet::swmrOnly(int numDevices)
{
    ConjunctBuilder b;
    b.numDevices = numDevices;
    addSwmrFamily(b);
    return InvariantSet(std::move(b.conjuncts));
}

InvariantSet
InvariantSet::filtered(const std::vector<std::string> &families) const
{
    std::vector<Conjunct> kept;
    for (const Conjunct &c : conjuncts_) {
        if (std::find(families.begin(), families.end(), c.family) !=
            families.end()) {
            kept.push_back(c);
        }
    }
    for (std::size_t i = 0; i < kept.size(); ++i)
        kept[i].id = static_cast<std::uint16_t>(i);
    return InvariantSet(std::move(kept));
}

const Conjunct *
InvariantSet::firstFailure(const SystemState &s, const Context &ctx) const
{
    const Conjunct *failed = nullptr;
    triggers_.forEachCandidate(s, [&](std::size_t id) {
        if (conjuncts_[id].holds(s, ctx))
            return true;
        failed = &conjuncts_[id];
        return false;
    });
    return failed;
}

const Conjunct *
InvariantSet::find(const std::string &name) const
{
    for (const Conjunct &c : conjuncts_) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

std::vector<std::string>
InvariantSet::families() const
{
    std::vector<std::string> fams;
    for (const Conjunct &c : conjuncts_) {
        if (std::find(fams.begin(), fams.end(), c.family) == fams.end())
            fams.push_back(c.family);
    }
    return fams;
}

} // namespace cxl
