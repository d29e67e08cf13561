/**
 * @file
 * Low-overhead, deterministic event tracing for the simulator.
 *
 * The Tracer records spans (complete events with a begin cycle and a
 * duration) and instants into per-track append-only buffers — one
 * track per core plus one for the ULI network — and exports them as
 * Chrome/Perfetto trace-event JSON (open the file in ui.perfetto.dev
 * or chrome://tracing). Simulated cycles map 1:1 to trace timestamps
 * (1 cycle == 1 "us" in the viewer), so a DTS steal's
 * request→ack→resp→invalidate chain is visible as nested spans across
 * the thief and victim tracks.
 *
 * Determinism: event names and argument keys are static strings, every
 * value is an integer derived from simulated state, and export walks
 * the tracks in id order — the same run produces byte-identical JSON
 * on every host and with any --jobs count. Tracing is host-side only:
 * it never charges simulated cycles, so enabling it cannot perturb the
 * model (verified by test_trace.cc against test_model_fidelity's
 * invariants).
 *
 * Hot-path guard: call sites test BT_TRACE_ON(tr, cat) — a null check
 * plus one bitmask AND — before touching the tracer; with tracing off
 * the tracer pointer is null and no events are recorded. The task,
 * steal and flow events of the runtime all come from rt::Runtime's
 * task-event fan-out (DESIGN.md §9); the memory system, cores, ULI
 * network and fault injector guard their own single-observer sites.
 */

#ifndef BIGTINY_TRACE_TRACE_HH
#define BIGTINY_TRACE_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace bigtiny::trace
{

/** Event categories; a Tracer records the bitwise OR it was given. */
enum : uint32_t
{
    CatTask = 1u << 0,  //!< task exec spans, spawns, deque depth
    CatSteal = 1u << 1, //!< steal-attempt spans and outcomes
    CatUli = 1u << 2,   //!< ULI messages, handler spans, in-flight
    CatMem = 1u << 3,   //!< L1 misses, flush/invalidate spans
    CatCoh = 1u << 4,   //!< MESI invalidations and owner recalls
    CatFault = 1u << 5, //!< fault-injector firings
    CatFlow = 1u << 6,  //!< spawn->steal->exec flow arrows
    CatAll = (1u << 7) - 1,
};

/** Viewer-facing name of a single category bit. */
const char *catName(uint32_t bit);

/**
 * Parse a comma-separated category list ("task,uli", "all") into a
 * mask; fatal() on an unknown name. An empty string means all.
 */
uint32_t parseCategories(const std::string &csv);

/** Canonical comma-separated rendering of a category mask. */
std::string categoriesToString(uint32_t mask);

#define BT_TRACE_ON(tr, cat) ((tr) != nullptr && (tr)->wants(cat))

class Tracer
{
  public:
    /**
     * @param num_tracks number of event tracks (cores + extra);
     *        name them with setTrackName before export.
     * @param mask categories to record (CatAll for everything).
     */
    Tracer(int num_tracks, uint32_t mask);

    bool wants(uint32_t cat) const { return (mask & cat) != 0; }

    void setTrackName(int track, std::string name);

    /** An instantaneous event at @p ts on @p track. Arg keys must be
     *  static strings; pass nullptr for unused slots. */
    void instant(uint32_t cat, int track, Cycle ts, const char *name,
                 const char *k0 = nullptr, uint64_t v0 = 0,
                 const char *k1 = nullptr, uint64_t v1 = 0);

    /** A complete span [t0, t1] on @p track (Chrome "X" event). */
    void complete(uint32_t cat, int track, Cycle t0, Cycle t1,
                  const char *name, const char *k0 = nullptr,
                  uint64_t v0 = 0, const char *k1 = nullptr,
                  uint64_t v1 = 0);

    /** A counter sample (Chrome "C" event): @p name's value at @p ts. */
    void counter(uint32_t cat, int track, Cycle ts, const char *name,
                 uint64_t value);

    /**
     * A flow-event arrow point: @p ph is 's' (start), 't' (step) or
     * 'f' (end, serialized with binding point "e" so the arrow lands
     * on the enclosing span). Points sharing @p name and @p id are
     * connected by the viewer; the lifecycle flows use the task frame
     * address as the id, which is unique within a run.
     */
    void flow(uint32_t cat, int track, Cycle ts, char ph,
              const char *name, uint64_t id);

    /** Total events recorded so far (all tracks). */
    size_t eventCount() const;

    /**
     * Export everything as Chrome trace-event JSON. Deterministic:
     * depends only on the recorded events and track names.
     */
    void writeJson(std::ostream &os) const;

  private:
    struct Event
    {
        const char *name;
        const char *k0;
        const char *k1;
        uint64_t v0;
        uint64_t v1;
        Cycle ts;
        Cycle dur;
        uint32_t cat;
        char ph; //!< 'X' span, 'i' instant, 'C' counter,
                 //!< 's'/'t'/'f' flow points (v0 is the flow id)
    };

    void push(uint32_t cat, int track, Event e);

    uint32_t mask;
    std::vector<std::vector<Event>> tracks;
    std::vector<std::string> names;
};

} // namespace bigtiny::trace

#endif // BIGTINY_TRACE_TRACE_HH
