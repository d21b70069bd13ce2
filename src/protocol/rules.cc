#include "protocol/rules.hh"

#include <algorithm>
#include <cassert>

#include "support/hash.hh"

namespace cxl
{

bool
sharerView(const SystemState &s, int j)
{
    const DeviceState &d = s.dev[j];
    switch (d.state) {
      case DState::S:
      case DState::SMAD:
      case DState::ISD:
      case DState::ISA:
        return true;
      case DState::SIA:
      case DState::SIAC:
        // An evicting sharer counts only while its eviction request is
        // still queued; once the host has processed it the directory
        // has already discounted the device (the GO_WritePull[Drop] is
        // in flight and the line is as good as gone).
        return !d.d2hReq.empty();
      case DState::ISAD:
        // A grant is in flight: the host has already promised S.
        return !d.h2dRsp.empty() || !d.h2dData.empty();
      default:
        return false;
    }
}

bool
ownerView(const SystemState &s, int j)
{
    const DeviceState &d = s.dev[j];
    switch (d.state) {
      case DState::M:
      case DState::IMD:
      case DState::IMA:
      case DState::SMD:
      case DState::SMA:
        return true;
      case DState::MIA:
        // Same discounting as evicting sharers in sharerView().
        return !d.d2hReq.empty();
      case DState::IMAD:
      case DState::SMAD:
        // Ownership grant in flight.
        return !d.h2dRsp.empty() || !d.h2dData.empty();
      default:
        return false;
    }
}

bool
goSendAllowed(const SystemState &s, int i)
{
    const DeviceState &d = s.dev[i];
    return d.h2dReq.empty() && d.d2hRsp.empty() && d.d2hData.empty();
}

bool
anyOtherSharer(const SystemState &s, int i)
{
    for (int k = 0; k < s.ndev; ++k) {
        if (k != i && sharerView(s, k))
            return true;
    }
    return false;
}

bool
otherGrantDataDrained(const SystemState &s, int i)
{
    for (int k = 0; k < s.ndev; ++k) {
        if (k != i && !s.dev[k].h2dData.empty())
            return false;
    }
    return true;
}

namespace
{

/** Lookup hash of one template instance: base + device-arg tuple.
 * Lookups confirm a match on the rule itself, so collisions only cost
 * a comparison. */
std::uint64_t
instanceHash(const std::string &base, const std::array<std::int8_t, 3> &args)
{
    const std::uint64_t words[2] = {
        hashBytes(base.data(), base.size()),
        static_cast<std::uint64_t>(static_cast<std::uint8_t>(args[0])) |
            static_cast<std::uint64_t>(static_cast<std::uint8_t>(args[1]))
                << 8 |
            static_cast<std::uint64_t>(static_cast<std::uint8_t>(args[2]))
                << 16};
    return hashBytes(words, sizeof words);
}

} // namespace

RuleSet::RuleSet(ProtocolConfig config, int numDevices)
    : config_(config), num_devices_(numDevices)
{
    assert(numDevices >= 1 && numDevices <= kMaxDevices);
    for (int d = 0; d < num_devices_; ++d)
        addDeviceRules(rules_, d, config_);
    for (int d = 0; d < num_devices_; ++d)
        addHostRules(rules_, d, config_, num_devices_);
    for (std::size_t i = 0; i < rules_.size(); ++i)
        rules_[i].id = static_cast<std::uint16_t>(i);
    indexInstances();
    triggers_ = TriggerIndex(rules_);
}

void
RuleSet::indexInstances()
{
    instances_.clear();
    for (const Rule &r : rules_) {
        if (!r.base.empty())
            instances_.emplace_back(instanceHash(r.base, r.args), r.id);
    }
    // By hash, then id: equal instances resolve to the first rule.
    std::sort(instances_.begin(), instances_.end());
}

int
RuleSet::permutedRuleId(std::uint16_t id,
                        const std::uint8_t *oldToNew) const
{
    const Rule &r = rules_[id];
    if (r.base.empty())
        return -1;
    std::array<std::int8_t, 3> mapped = r.args;
    for (std::int8_t &a : mapped) {
        if (a >= 0) {
            assert(a < num_devices_);
            a = static_cast<std::int8_t>(oldToNew[a]);
        }
    }
    const std::uint64_t h = instanceHash(r.base, mapped);
    for (auto it = std::lower_bound(instances_.begin(), instances_.end(),
                                    std::make_pair(h, std::uint16_t{0}));
         it != instances_.end() && it->first == h; ++it) {
        const Rule &image = rules_[it->second];
        if (image.base == r.base && image.args == mapped)
            return it->second;
    }
    return -1;
}

std::size_t
RuleSet::baseRuleCount() const
{
    return static_cast<std::size_t>(
        std::count_if(rules_.begin(), rules_.end(),
                      [](const Rule &r) { return !r.mutated; }));
}

void
RuleSet::addRule(Rule rule)
{
    rule.id = static_cast<std::uint16_t>(rules_.size());
    rules_.push_back(std::move(rule));
    const Rule &added = rules_.back();
    if (!added.base.empty()) {
        const std::pair<std::uint64_t, std::uint16_t> entry{
            instanceHash(added.base, added.args), added.id};
        instances_.insert(std::upper_bound(instances_.begin(),
                                           instances_.end(), entry),
                          entry);
    }
    triggers_ = TriggerIndex(rules_);
}

const Rule *
RuleSet::find(const std::string &name) const
{
    for (const Rule &r : rules_) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

std::vector<RuleSet::Successor>
RuleSet::successors(const SystemState &state, const Scenario &scenario,
                    bool canonicalise) const
{
    std::vector<Successor> result;
    successorsInto(state, scenario, canonicalise, result);
    return result;
}

void
RuleSet::successorsInto(const SystemState &state,
                        const Scenario &scenario, bool canonicalise,
                        std::vector<Successor> &out) const
{
    out.clear();
    Context ctx{&scenario};
    triggers_.forEachCandidate(state, [&](std::size_t id) {
        const Rule &rule = rules_[id];
        if (!rule.guard(state, ctx))
            return true;
        Successor &succ = out.emplace_back(Successor{&rule, state, false});
        succ.overflow = !rule.apply(succ.state, ctx);
        if (canonicalise)
            succ.state.canonicaliseTids();
        return true;
    });
}

void
RuleSet::successorsPor(const SystemState &state,
                       const Scenario &scenario, bool canonicalise,
                       const std::uint64_t *sleep,
                       std::vector<Successor> &out,
                       std::vector<std::uint16_t> &slept) const
{
    out.clear();
    slept.clear();
    Context ctx{&scenario};
    triggers_.forEachCandidate(state, [&](std::size_t id) {
        const Rule &rule = rules_[id];
        if (!rule.guard(state, ctx))
            return true;
        if (sleep[rule.id >> 6] & (1ull << (rule.id & 63))) {
            slept.push_back(rule.id);
            return true;
        }
        Successor &succ =
            out.emplace_back(Successor{&rule, state, false});
        succ.overflow = !rule.apply(succ.state, ctx);
        if (canonicalise)
            succ.state.canonicaliseTids();
        return true;
    });
}

bool
RuleSet::fire(const std::string &name, SystemState &state,
              const Scenario &scenario) const
{
    const Rule *rule = find(name);
    if (!rule)
        return false;
    Context ctx{&scenario};
    if (!rule->guard(state, ctx))
        return false;
    return rule->apply(state, ctx);
}

} // namespace cxl
