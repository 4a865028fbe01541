/**
 * @file
 * Exporters over RegistrySnapshot: a JSON document for dashboards and
 * the potluckd --stats-format=json periodic dump, and the Prometheus
 * text exposition format (0.0.4) for scrapers. Both operate on plain
 * snapshots, so a CLI can render metrics it fetched over IPC exactly
 * like the daemon renders its own.
 */
#ifndef POTLUCK_OBS_EXPORT_H
#define POTLUCK_OBS_EXPORT_H

#include <string>

#include "obs/registry.h"

namespace potluck::obs {

/**
 * Render a snapshot as a JSON object:
 *   {"build_info": {"version", "git_sha", "sanitizer"},
 *    "process_uptime_seconds": n,
 *    "counters": {name: value, ...},
 *    "gauges": {name: value, ...},
 *    "histograms": {name: {"count", "sum", "mean", "min", "max",
 *                          "p50", "p90", "p99"}, ...}}
 */
std::string toJson(const RegistrySnapshot &snapshot);

/**
 * Render a snapshot in Prometheus text format (0.0.4). Metric names
 * have dots rewritten to underscores; every family gets `# HELP` and
 * `# TYPE` lines. Counters carry the conformant `_total` suffix and
 * `*_ns`/`*_us`/`*_ms` histograms are exported as `*_seconds`
 * summaries in base units. Histograms are summaries with
 * p50/p90/p99 quantile labels plus _count and _sum (the full bucket
 * vector stays in the binary wire format, not the scrape output).
 * The identity block (`potluck_build_info`, `process_uptime_seconds`)
 * is prepended.
 */
std::string toPrometheus(const RegistrySnapshot &snapshot);

/** `a.b-c` -> `a_b_c`: a valid Prometheus metric name. */
std::string prometheusName(const std::string &name);

/**
 * Escape an arbitrary byte string for embedding in a JSON string
 * literal: quote/backslash/control characters are \-escaped and bytes
 * that do not form valid UTF-8 become U+FFFD, so app-supplied
 * function/app names can never break the document out of its string.
 */
std::string jsonEscape(const std::string &s);

/** Human-friendly duration from nanoseconds, e.g. "13.4us", "2.1ms". */
std::string formatNs(double ns);

} // namespace potluck::obs

#endif // POTLUCK_OBS_EXPORT_H
