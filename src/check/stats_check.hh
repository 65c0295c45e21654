/**
 * @file
 * Conservation checks over end-of-run statistics: every fetched
 * trace is accounted for exactly once (tcHits + pbHits + tcMisses ==
 * traces), cache miss counters never exceed access counters, and the
 * preconstruction engine's region/trace ledgers stay consistent.
 * Violations here mean double counting or lost events, which would
 * silently corrupt every table and figure the simulators produce.
 */

#ifndef TPRE_CHECK_STATS_CHECK_HH
#define TPRE_CHECK_STATS_CHECK_HH

#include "check/invariants.hh"
#include "sample/sample.hh"
#include "tproc/fast_sim.hh"
#include "tproc/processor.hh"

namespace tpre::check
{

/** Conservation of the I-cache access/miss counters. */
Violation icacheStatsSane(const ICache::Stats &s);

/** Conservation of the preconstruction engine's ledgers. */
Violation preconStatsSane(const PreconstructionEngine::Stats &s);

/**
 * Conservation shared by both simulators: every trace probe counted
 * exactly once (tcHits + pbHits + tcMisses == traces, or one more
 * when @p inFlightLookup allows a counted probe whose trace has not
 * been dispatched yet), and sane I-cache and engine ledgers.
 */
Violation supplyConserved(const SupplyStats &s, bool inFlightLookup);

/** Conservation across a finished FastSim run. */
Violation statsConserved(const FastSimStats &s);

/**
 * Field-by-field equality of two FastSim runs — every counter,
 * including the I-cache, preconstruction and provenance breakdowns.
 * This is the oracle behind trace replay: a `.tpt` replay of the
 * stream a live run committed must reproduce its statistics
 * exactly. The violation names the first differing field.
 */
Violation fastStatsEqual(const FastSimStats &live,
                         const FastSimStats &replayed);

/** Conservation across a finished TraceProcessor run. */
Violation statsConserved(const ProcessorStats &s);

/**
 * Sanity of one sampled run (sample::runSampled, non-degenerate)
 * against the same program's full detailed statistics: instruction
 * accounting balances to within trace-boundary slack, coverage stays
 * a fraction, and the stratified miss-rate and coverage estimates
 * land inside a tolerance envelope of the detailed run's true rates.
 * The envelope is max(4 x the run's own ci95, calibrated relative
 * and absolute floors): each functional skip perturbs the frontend
 * trajectory by a few misses regardless of skip length, so short
 * budgets carry an absolute noise floor the estimator cannot beat
 * (DESIGN.md section 16). Callers prefix violations with their
 * category ("sampling-...").
 */
Violation sampledRunSane(const sample::SampledRun &run,
                         const FastSimStats &detailed,
                         const SelectionPolicy &selection);

} // namespace tpre::check

#endif // TPRE_CHECK_STATS_CHECK_HH
