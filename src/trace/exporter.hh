/**
 * @file
 * Unified end-of-run statistics exporter.
 *
 * One versioned JSON schema (statsSchemaVersion, documented in
 * DESIGN.md §9) serializes everything a run produced: the system
 * configuration, cycles and validation outcome, the DAG-profiler
 * work/span analysis, runtime (work-stealing) counters, the aggregate
 * tiny-core cache/time breakdowns, L2/DRAM/NoC/ULI statistics, a
 * per-core detail array, the fault-injection log, and — for failed
 * runs — the structured FailureReport. btsim (--stats-json), btsweep
 * and the bench binaries all emit this schema instead of ad-hoc
 * printing, so downstream tooling parses one format.
 *
 * Determinism: field order is fixed, doubles render with %.10g, and
 * non-finite values (e.g. hit rate with zero accesses) serialize as
 * null — NaN is not valid JSON.
 */

#ifndef BIGTINY_TRACE_EXPORTER_HH
#define BIGTINY_TRACE_EXPORTER_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

namespace bigtiny::sim
{
class System;
} // namespace bigtiny::sim

namespace bigtiny::rt
{
class Runtime;
} // namespace bigtiny::rt

namespace bigtiny::fault
{
struct FailureReport;
} // namespace bigtiny::fault

namespace bigtiny::trace
{

/**
 * Bump when the JSON layout changes incompatibly. Version 2 adds the
 * "lifecycle" section (sojourn/exec latency histograms, critical-path
 * chain, steal-locality heatmap; DESIGN.md §16). Runs without
 * lifecycle tracking still emit the version-1 document byte-for-byte
 * — the golden-pinned artifacts predate the section and must not
 * change.
 */
constexpr int statsSchemaVersion = 2;

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(const std::string &s);

/** Write a finite double (%.10g), or null for NaN/Inf. */
void jsonNumber(std::ostream &os, double v);

/** Write {"<name(i)>":v[i],...} for a counter array indexed by the
 *  enum @p E (time categories, NoC message classes). */
template <typename E, size_t N>
void
writeNamedCounts(std::ostream &os, const std::array<uint64_t, N> &v,
                 const char *(*name)(E))
{
    os << "{";
    for (size_t i = 0; i < N; ++i)
        os << (i ? "," : "") << "\"" << name(static_cast<E>(i))
           << "\":" << v[i];
    os << "}";
}

/**
 * Serialize the full statistics tree of a finished (or failed) run.
 *
 * @param rt the runtime for parallel runs; null under serial elision.
 * @param failure the failure report for failed runs; null when clean.
 */
void writeRunStatsJson(std::ostream &os, sim::System &sys,
                       rt::Runtime *rt, bool validated,
                       const fault::FailureReport *failure);

} // namespace bigtiny::trace

#endif // BIGTINY_TRACE_EXPORTER_HH
