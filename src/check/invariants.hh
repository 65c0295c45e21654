/**
 * @file
 * Structural invariant checkers for the data the simulators hand
 * around: trace well-formedness under the shared selection rules,
 * trace-content agreement between what the machine serves and what
 * the architectural path demands, preconstruction buffer
 * consistency, return-address-stack sanity, and call/return balance
 * of a committed instruction stream.
 *
 * Every checker returns std::nullopt when the invariant holds and a
 * human-readable description of the first violation otherwise, so
 * the fuzz driver can report instead of abort; enforce() converts a
 * violation into a panic for the TPRE_CHECK call sites inside the
 * simulators.
 */

#ifndef TPRE_CHECK_INVARIANTS_HH
#define TPRE_CHECK_INVARIANTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bpred/ras.hh"
#include "func/core.hh"
#include "precon/buffers.hh"
#include "telemetry/attrib.hh"
#include "trace/selector.hh"

namespace tpre
{
struct SupplyStats;
class TraceCache;
} // namespace tpre

namespace tpre::check
{

/** A violated invariant, or std::nullopt when the invariant holds. */
using Violation = std::optional<std::string>;

/** Panic with @p where as context when @p v describes a violation. */
void enforce(const Violation &v, const char *where);

/**
 * A trace produced by the shared selection rules must be internally
 * consistent: the identity matches the content, the embedded path
 * is contiguous, branch flags mirror the embedded outcomes,
 * hard-terminating instructions appear only in the last slot, and
 * the end reason / fall-through agree with the selection policy.
 * Preprocessed traces keep only the identity/size checks (passes
 * may rewrite, reorder and delete instructions).
 *
 * @p partial marks a trace flushed mid-assembly (end of simulation
 * or a shrunk program walking off the code image); such traces may
 * stop short of the length the termination rules demand.
 */
Violation traceWellFormed(const Trace &trace,
                          const SelectionPolicy &policy = {},
                          bool partial = false);

/**
 * The trace the machine serves (from the trace cache or a
 * preconstruction buffer) must carry the same instructions as the
 * trace the architectural path demands. Within one static code
 * image a TraceId fully determines the embedded path, so this is an
 * exact equality for unpreprocessed traces.
 */
Violation tracesMatch(const Trace &expected, const Trace &served);

/**
 * A preprocessed trace must be architecturally equivalent to the
 * original: executed instruction-by-instruction from the same
 * randomized register file (seeded by @p seed), both bodies must
 * leave identical registers and identical values at every touched
 * memory address.
 */
Violation tracesArchEquivalent(const Trace &original,
                               const Trace &processed,
                               std::uint64_t seed);

/**
 * Every valid preconstruction buffer entry must hold a well-formed
 * trace under the engine's selection policy.
 */
Violation buffersWellFormed(const PreconstructionBuffers &buffers,
                            const SelectionPolicy &policy);

/** Structural sanity of the return address stack. */
Violation rasWellFormed(const ReturnAddressStack &ras);

/**
 * Call/return balance of a committed dynamic stream: returns never
 * outnumber calls at any prefix, and (when @p halted) the stream
 * ends at depth zero. All program sources in this repository emit
 * balanced call trees, so an imbalance means either a generator bug
 * or a corrupted commit stream.
 */
Violation streamCallRetBalanced(const std::vector<DynInst> &stream,
                                bool halted);

/**
 * The trace-provenance contract: the per-origin ledger a run's
 * TraceCache accumulated must reconcile *exactly* with the run's
 * counters, in both simulation modes —
 *
 *   fill builds   == tcMisses   (one demand fill per miss)
 *   precon builds == pbHits     (one promotion per buffer hit)
 *   hits (summed) == tcHits + pbHits
 *   precon lines are used at promotion: firstUses == builds and
 *   none is ever evicted unused
 *   builds - evictions == lines still valid in the cache
 *
 * plus per-origin structural sanity (firstUses <= builds,
 * firstUses <= hits, evictions <= builds). The ledger is plain
 * integer bookkeeping, so this holds in every build.
 */
Violation provenanceReconciles(const ProvenanceTable &prov,
                               std::uint64_t tcHits,
                               std::uint64_t pbHits,
                               std::uint64_t tcMisses,
                               std::uint64_t residentValid);

/**
 * provenanceReconciles() over a finished run of either simulator:
 * its stats against its trace cache's ledger, plus the per-cell
 * bounds of attribReconciles() on the cache's cells.
 */
Violation provenanceReconciles(const SupplyStats &stats,
                               const TraceCache &cache);

/**
 * The reuse-attribution contract (DESIGN.md section 17): summing
 * an origin's loop-class cells must reproduce that origin's
 * OriginProvenance row field by field. Per-cell structural sanity
 * bounds the instruction-type histograms: a resident trace body
 * holds 1..kMaxTraceLen instructions, so
 * builds <= sum(instBuilt) <= 16*builds and
 * hits <= sum(instServed) <= 16*hits, with the usual
 * firstUses/evictions ordering inside each cell. The unnamed flag
 * is ignored: attribution is always on.
 */
Violation attribReconciles(const AttribTable &attrib,
                           const ProvenanceTable &prov, bool = true);

} // namespace tpre::check

#endif // TPRE_CHECK_INVARIANTS_HH
