#include "fuzz/case.hh"

#include <cstdio>
#include <stdexcept>

#include "support/hash.hh"
#include "support/json.hh"
#include "support/json_parse.hh"

namespace cxl::fuzz
{
namespace
{

const char *
initWord(InitKind k)
{
    switch (k) {
      case InitKind::AllInvalid: return "all_invalid";
      case InitKind::BothShared: return "both_shared";
      case InitKind::OneModified: return "one_modified";
    }
    return "?";
}

InitKind
initFromWord(const std::string &word)
{
    if (word == "all_invalid")
        return InitKind::AllInvalid;
    if (word == "both_shared")
        return InitKind::BothShared;
    if (word == "one_modified")
        return InitKind::OneModified;
    throw std::runtime_error("unknown init kind '" + word + "'");
}

} // namespace

std::string
instrWord(Instr i)
{
    switch (i) {
      case Instr::Load: return "load";
      case Instr::Store: return "store";
      case Instr::Evict: return "evict";
      case Instr::None: return "none";
    }
    return "?";
}

Instr
instrFromWord(const std::string &word)
{
    if (word == "load")
        return Instr::Load;
    if (word == "store")
        return Instr::Store;
    if (word == "evict")
        return Instr::Evict;
    throw std::runtime_error("unknown instruction '" + word + "'");
}

std::string
FuzzCase::name() const
{
    // Content-derived: identical cases get identical names no matter
    // which seed path generated them, which is what deduplicates the
    // corpus and keeps manifests byte-stable across runs.
    const std::string canon = renderJson();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "g%016llx",
                  static_cast<unsigned long long>(
                      hashBytes(canon.data(), canon.size())));
    return buf;
}

Scenario
FuzzCase::toScenario() const
{
    Scenario sc;
    sc.name = name();
    switch (init) {
      case InitKind::AllInvalid:
        sc.initial = initialAllInvalid(memVal, devices);
        break;
      case InitKind::BothShared:
        sc.initial = initialBothShared(memVal, devices);
        break;
      case InitKind::OneModified:
        sc.initial = initialOneModified(owner % devices, ownerVal,
                                        memVal, devices);
        break;
    }
    sc.freeRun = freeRun;
    if (!freeRun) {
        for (std::size_t d = 0;
             d < programs.size() &&
             d < static_cast<std::size_t>(devices);
             ++d) {
            sc.program[d] = programs[d];
        }
    }
    return sc;
}

CheckRequest
FuzzCase::toRequest() const
{
    CheckRequest req;
    req.inlineScenario = toScenario();
    req.devices = devices;
    req.config = config;
    req.families = families;
    return req;
}

std::string
configJson(const ProtocolConfig &config)
{
    JsonObject cfg;
    cfg.boolean("stale_evict_drop", config.staleEvictDrop)
        .boolean("clean_evict_no_data", config.cleanEvictNoData)
        .boolean("host_clean_pull", config.hostCleanPull)
        .boolean("relax_snoop_pushes_go", config.relaxSnoopPushesGo)
        .boolean("relax_smad_snoop_guard", config.relaxSmadSnoopGuard)
        .boolean("relax_go_tailgate", config.relaxGoTailgate)
        .boolean("relax_one_snoop", config.relaxOneSnoop);
    return cfg.render();
}

ProtocolConfig
configFromJsonValue(const JsonValue *cfg)
{
    ProtocolConfig config;
    if (!cfg)
        return config;
    config.staleEvictDrop = cfg->getBool("stale_evict_drop", true);
    config.cleanEvictNoData =
        cfg->getBool("clean_evict_no_data", true);
    config.hostCleanPull = cfg->getBool("host_clean_pull");
    config.relaxSnoopPushesGo =
        cfg->getBool("relax_snoop_pushes_go");
    config.relaxSmadSnoopGuard =
        cfg->getBool("relax_smad_snoop_guard");
    config.relaxGoTailgate = cfg->getBool("relax_go_tailgate");
    config.relaxOneSnoop = cfg->getBool("relax_one_snoop");
    return config;
}

std::string
FuzzCase::renderJson() const
{
    std::vector<std::string> prog_rows;
    for (const std::vector<Instr> &prog : programs) {
        std::vector<std::string> words;
        for (Instr i : prog)
            words.push_back(JsonObject::quote(instrWord(i)));
        prog_rows.push_back(JsonObject::array(words));
    }
    std::vector<std::string> family_rows;
    for (const std::string &f : families)
        family_rows.push_back(JsonObject::quote(f));

    JsonObject json;
    json.str("schema", "cxl-fuzz-case/v1")
        .num("devices", static_cast<std::uint64_t>(devices))
        .boolean("free_run", freeRun)
        .str("init", initWord(init))
        .num("mem_val", static_cast<std::uint64_t>(memVal))
        .num("owner_val", static_cast<std::uint64_t>(ownerVal))
        .num("owner", static_cast<std::uint64_t>(owner))
        .raw("programs", JsonObject::array(prog_rows))
        .raw("config", configJson(config))
        .raw("families", JsonObject::array(family_rows))
        .num("max_states", maxStates);
    return json.render();
}

FuzzCase
FuzzCase::fromJson(const std::string &text)
{
    const JsonValue doc = parseJson(text);
    if (doc.getStr("schema") != "cxl-fuzz-case/v1") {
        throw std::runtime_error("not a cxl-fuzz-case/v1 document");
    }
    FuzzCase c;
    c.devices = static_cast<int>(doc.getNum("devices", 2));
    if (c.devices < 1 || c.devices > kMaxDevices)
        throw std::runtime_error("fuzz case devices out of range");
    c.freeRun = doc.getBool("free_run");
    c.init = initFromWord(doc.getStr("init", "all_invalid"));
    c.memVal = static_cast<std::uint8_t>(doc.getNum("mem_val"));
    c.ownerVal = static_cast<std::uint8_t>(doc.getNum("owner_val"));
    c.owner = static_cast<std::uint8_t>(doc.getNum("owner"));

    if (const JsonValue *progs = doc.get("programs")) {
        for (const JsonValue &row : progs->items()) {
            std::vector<Instr> prog;
            for (const JsonValue &word : row.items())
                prog.push_back(instrFromWord(word.str()));
            c.programs.push_back(std::move(prog));
        }
    }
    c.config = configFromJsonValue(doc.get("config"));
    if (const JsonValue *fams = doc.get("families")) {
        for (const JsonValue &f : fams->items())
            c.families.push_back(f.str());
    }
    c.maxStates = doc.get("max_states")
                      ? doc.get("max_states")->asUint()
                      : 0;
    return c;
}

bool
operator==(const FuzzCase &a, const FuzzCase &b)
{
    // The JSON form covers every field, so it doubles as the
    // equality witness (and keeps the two in lockstep by
    // construction).
    return a.renderJson() == b.renderJson();
}

// -------------------------------------------------- VerdictSignature

std::string
VerdictSignature::key() const
{
    std::string out = classKey() + "/d" + std::to_string(depth);
    if (exactCounts) {
        out += "/s" + std::to_string(states) + "/r" +
               std::to_string(diameter);
    } else {
        out += "/s-/r-";
    }
    return out;
}

std::string
VerdictSignature::classKey() const
{
    return verdict + "/" + kind + "/" + conjunct + "/" + family;
}

std::string
VerdictSignature::noveltyKey() const
{
    int klass = -1;
    if (exactCounts) {
        klass = 0;
        for (std::uint64_t d = diameter + 1; d > 1; d >>= 1)
            ++klass;
    }
    return classKey() + "/D" + std::to_string(klass);
}

VerdictSignature
signatureOf(const CheckResult &result, bool capped)
{
    VerdictSignature sig;
    switch (result.verdict) {
      case CheckResult::Verdict::Holds: sig.verdict = "holds"; break;
      case CheckResult::Verdict::Violated:
        sig.verdict = "violation";
        break;
      case CheckResult::Verdict::Deadlocked:
        sig.verdict = "deadlock";
        break;
      case CheckResult::Verdict::Incomplete:
        sig.verdict = "incomplete";
        break;
    }
    if (result.violation) {
        switch (result.violation->kind) {
          case Violation::Kind::Conjunct:
            sig.kind = "conjunct";
            sig.conjunct = result.violation->conjunctName;
            sig.family = result.violation->conjunctFamily;
            break;
          case Violation::Kind::Overflow:
            sig.kind = "overflow";
            sig.conjunct = result.violation->overflowRule;
            break;
          case Violation::Kind::Deadlock: sig.kind = "deadlock"; break;
        }
        sig.depth = result.violation->depth;
    }
    // Counts are exact run properties when the exploration drained
    // the frontier, or when it stopped at a violation with no cap in
    // play (the engine guarantees BFS-minimal, thread-invariant
    // counts there).  A cap-truncated run stops at a
    // thread-dependent point, so its counts are dropped.
    sig.exactCounts =
        result.completed ||
        (!capped &&
         result.verdict != CheckResult::Verdict::Incomplete);
    if (sig.exactCounts) {
        sig.states = result.states;
        sig.diameter = result.diameter;
    }
    return sig;
}

} // namespace cxl::fuzz
