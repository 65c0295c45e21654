/**
 * @file
 * Prometheus text exposition (version 0.0.4) of the tpre::obs
 * metrics registry. Pure rendering — renderPrometheus() maps a
 * registry snapshot to the text format, so the golden tests pin
 * the output without a live server or a populated registry:
 *
 *   obs name          exposition family
 *   tcache.probes  -> tpre_tcache_probes_total (counter)
 *   pool.queue_depth -> tpre_pool_queue_depth (gauge)
 *   precon.stack_depth -> tpre_precon_stack_depth (histogram:
 *       cumulative _bucket{le="..."} series, _sum, _count)
 *
 * Naming: every family carries the tpre_ prefix (Grafana-ready,
 * collision-free), characters outside [a-zA-Z0-9_] become '_',
 * counters get the _total suffix the Prometheus data model
 * expects. HELP lines escape backslash and newline per the
 * exposition format spec.
 */

#ifndef TPRE_TELEMETRY_PROMETHEUS_HH
#define TPRE_TELEMETRY_PROMETHEUS_HH

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"
#include "telemetry/attrib.hh"

namespace tpre::telemetry
{

/**
 * Family name for an obs metric: tpre_ prefix, sanitized body,
 * _total suffix for counters.
 */
std::string promFamilyName(std::string_view name,
                           obs::MetricKind kind);

/** Render @p rows as a Prometheus text-format document. */
std::string renderPrometheus(const std::vector<obs::MetricRow> &rows);

/** Snapshot the process registry and render it. */
std::string renderRegistryPrometheus();

/**
 * Render @p table as labeled counter families, e.g.
 *   tpre_provenance_builds_total{origin="fill"} 42
 * with one eviction family split by reason
 * (tpre_provenance_evictions_total{origin="...",reason="..."}).
 */
std::string renderProvenancePrometheus(const ProvenanceTable &table);

/**
 * Render @p table as origin × loop_class labeled families
 * (tpre_attrib_builds_total{origin="...",loop_class="..."}), with
 * the instruction-type histograms as a third label
 * (tpre_attrib_inst_served_total{...,inst_type="..."}).
 */
std::string renderAttribPrometheus(const AttribTable &table);

/**
 * Fold one finished run's trace-cache ledger into the
 * process-wide aggregate the /metrics scrape serves (provenance is
 * rendered as its sum over loop classes). Thread-safe (parallel
 * sweep workers publish concurrently); Simulator::run calls this
 * once per completed run.
 */
void publishRunLedgers(const AttribTable &attrib);

/** Render the process-wide aggregate as labeled families. */
std::string renderPublishedLedgers();

/** Reset the process-wide aggregate (tests). */
void resetPublishedLedgers();

} // namespace tpre::telemetry

#endif // TPRE_TELEMETRY_PROMETHEUS_HH
