/**
 * @file
 * The traced per-layer replay: a single-threaded, level-synchronised
 * BFS written against the layers' public functions, so each layer's
 * busy time can be measured from outside the engine.
 *
 * Per BFS level and per chunk of frontier nodes the replay runs the
 * engine's kernel one layer at a time, timing each layer over the
 * whole chunk (a per-call timer would dwarf the ~100 ns hash and
 * canonicalisation calls):
 *
 *   StateStore::stateInto -> RuleSet::successorsInto(canonicalise=false)
 *   -> SystemState::canonicaliseTids -> SystemState::deviceCanonical
 *   -> SystemState::hash -> StateStore::insertBatch
 *   -> InvariantSet::firstFailure (fresh states) ... StateStore::sealLevel
 *
 * Reordering work inside a level changes store ids but not the set
 * of states per level, so states, transitions and diameter must equal
 * the engine's exactly; callers reject the replay otherwise.
 */

#ifndef CXLBENCH_REPLAY_HH
#define CXLBENCH_REPLAY_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/check.hh"

namespace cxlbench
{

/** Busy seconds per layer. */
struct LayerSeconds {
    double fetch = 0;      ///< StateStore::stateInto
    double generate = 0;   ///< RuleSet::successorsInto
    double tidCanon = 0;   ///< SystemState::canonicaliseTids
    double symCanon = 0;   ///< SystemState::deviceCanonical
    double hash = 0;       ///< SystemState::hash
    double insert = 0;     ///< StateStore::insertBatch
    double invariants = 0; ///< InvariantSet::firstFailure
    double seal = 0;       ///< StateStore::sealLevel

    LayerSeconds &operator+=(const LayerSeconds &o);
    std::string renderJson() const;
};

/** One BFS level of the replay. */
struct LevelTrace {
    std::uint32_t depth = 0;
    std::uint64_t frontier = 0;   ///< states expanded at this level
    std::uint64_t successors = 0; ///< successors generated
    std::uint64_t inserted = 0;   ///< of which new
    LayerSeconds layers;
};

struct ReplayResult {
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint32_t diameter = 0;
    std::uint64_t violations = 0; ///< failed conjuncts + overflows

    std::uint64_t generateCalls = 0;
    std::uint64_t symCanonCalls = 0;
    std::uint64_t inserted = 0; ///< new states from insertBatch
    std::uint64_t invariantEvals = 0;
    std::uint64_t probeCollisions = 0;

    double wallSeconds = 0;
    LayerSeconds layers;
    std::vector<LevelTrace> levels;

    std::string renderJson() const;
};

/** The replay's counts differ from the engine run it traces. */
class ReplayMismatch : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Replay the free-run exploration of @p scenario as the engine
 * would with the given symmetry and store kind (tids always
 * canonicalised, POR off). */
ReplayResult replayBfs(const cxl::RuleSet &rules,
                       const cxl::Scenario &scenario,
                       const cxl::InvariantSet &invariants,
                       bool symmetry, cxl::StoreKind store);

} // namespace cxlbench

#endif // CXLBENCH_REPLAY_HH
