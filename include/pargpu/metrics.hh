/**
 * @file
 * pargpu public API — metrics schema and exporters.
 *
 * Re-exports the versioned metrics document (metricsJson,
 * writeMetricsJson/writeMetricsCsv, buildRunRegistry, RunMetadata,
 * kMetricsSchemaVersion) described in docs/METRICS.md.
 *
 * Session-status: neutral — data types and models that Session runs
 * use; no run entry points of its own.
 */

#ifndef PARGPU_METRICS_HH
#define PARGPU_METRICS_HH

#include "harness/metrics.hh"

#endif // PARGPU_METRICS_HH
