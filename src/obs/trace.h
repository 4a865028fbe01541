/**
 * @file
 * End-to-end request tracing and the flight recorder.
 *
 * PR 1's spans aggregate stage latencies into histograms; this layer
 * answers "why was THIS lookup slow?" and "why was entry X evicted?".
 * Three pieces:
 *
 *  - TraceContext: a (trace id, parent span id) pair minted by
 *    PotluckClient per request and carried in the IPC wire header, so
 *    client round-trip, transport, and service-stage spans stitch into
 *    one trace tree across the process boundary.
 *
 *  - TraceRecord: one fixed-size POD cell — either a completed span or
 *    a structured *decision event* (an eviction with its importance
 *    breakdown, a threshold-tuner adjustment, an expiry sweep, a
 *    circuit-breaker transition). Fixed size keeps the recorder
 *    allocation-free on the hot path and makes the wire codec trivial.
 *
 *  - FlightRecorder: a lock-free multi-producer overwrite ring of
 *    TraceRecords — the post-mortem black box. Writers claim a slot
 *    with one fetch_add and publish with an odd/even sequence stamp;
 *    readers (rare: dumps) detect and discard torn cells, so a
 *    concurrent dump can never observe a half-written record.
 *
 * Tail sampling: spans buffer thread-locally while their request runs
 * (ActiveTrace) and are flushed to the ring only when the *root* span
 * finishes — always when the request blew the latency SLO, else with
 * probability sample_prob decided by a deterministic hash of the trace
 * id, so the client and service keep or drop the SAME traces without
 * coordination. Decision events bypass sampling: they are rare and
 * always worth keeping.
 *
 * Cost model (same guarantees as the PR 1 spans): with tracing off the
 * recorder pointer is null and every hook is one predictable branch;
 * -DPOTLUCK_OBS_TRACING=OFF compiles the span macros away entirely.
 * When on, an unsampled request pays two TSC reads per stage plus a
 * ~150 B thread-local copy per span — bench_obs_overhead holds the
 * total under 5% of lookup throughput at the paper's 100 B key size.
 */
#ifndef POTLUCK_OBS_TRACE_H
#define POTLUCK_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/histogram.h"
#include "obs/span.h"

namespace potluck::obs {

/** Trace identity carried in the IPC wire header (0 = none). */
struct TraceContext
{
    uint64_t trace_id = 0;
    uint64_t span_id = 0; ///< parent span for the receiving side
};

/** Which process wrote a record (Chrome-trace "pid" lane). */
inline constexpr uint8_t kProcService = 1;
inline constexpr uint8_t kProcClient = 2;

enum class RecordKind : uint8_t
{
    Span = 0,
    Decision = 1,
};

/** What adaptive choice a Decision record documents. */
enum class DecisionKind : uint8_t
{
    None = 0,
    Eviction = 1,         ///< a/b/c = overhead_us/access_freq/size_bytes
    ThresholdTighten = 2, ///< a/b/c = before/after/nn_dist
    ThresholdLoosen = 3,  ///< a/b/c = before/after/nn_dist
    ExpirySweep = 4,       ///< u = entries cleared
    BreakerTransition = 5, ///< a/b = from/to CircuitBreaker::State
    PeerStateChange = 6,   ///< a/b = from/to peer-link state, u = peer idx
    Demotion = 7,          ///< a/b/c = overhead_us/access_freq/size_bytes
    Promotion = 8,         ///< a/b/c = dist/threshold/value_bytes
    Compaction = 9,        ///< a/b/c = garbage_ratio/moved/segments_left
    ScrubCorruption = 10,  ///< a/b = frame_bytes/offset, u = key hash
    Quarantine = 11,       ///< a = quarantine set size, u = key hash
    Repair = 12,           ///< a = value_bytes, u = key hash
    HotSlot = 13           ///< a/b = heat/threshold, u = slot hash
};

/**
 * One flight-recorder cell: a completed span or a decision event.
 * Plain data, fixed size; `name` is always a compile-time constant
 * (span site or decision label), `detail` carries truncated
 * app-supplied context (function/app name) for the dump's args.
 */
struct TraceRecord
{
    RecordKind kind = RecordKind::Span;
    DecisionKind decision = DecisionKind::None;
    uint8_t proc = kProcService;
    char name[24] = {};
    char detail[32] = {};
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;
    uint64_t start_ns = 0; ///< spanNowNs() domain (steady_clock epoch)
    uint64_t dur_ns = 0;   ///< 0 for instant decision events
    double a = 0.0;        ///< decision payload (see DecisionKind)
    double b = 0.0;
    double c = 0.0;
    uint64_t u = 0; ///< extra integer payload (entry id, sweep count)

    void
    setName(const char *s)
    {
        std::strncpy(name, s, sizeof(name) - 1);
        name[sizeof(name) - 1] = '\0';
    }

    void
    setDetail(const char *s)
    {
        std::strncpy(detail, s, sizeof(detail) - 1);
        detail[sizeof(detail) - 1] = '\0';
    }
};

/** Recorder sizing and tail-sampling policy. */
struct TraceConfig
{
    /** Ring capacity in records (rounded up to a power of two). The
     * recorder's memory bound is capacity * sizeof(slot) ≈ capacity *
     * 160 B — ~640 KB at the 4096 default. */
    size_t capacity = 4096;

    /** Keep every trace whose root span lasted at least this long. */
    uint64_t slo_ns = 1000 * 1000; // 1 ms

    /** Probability of keeping a trace under the SLO, decided by a
     * deterministic hash of the trace id (client and service agree). */
    double sample_prob = 0.01;
};

/**
 * Lock-free multi-producer overwrite ring of TraceRecords.
 *
 * publish() is wait-free: claim a slot (fetch_add), stamp the sequence
 * odd (writing), copy the record, stamp even (published). When the
 * ring wraps, the oldest records are overwritten — a flight recorder
 * keeps the most recent window, not everything. snapshot() copies out
 * every published cell, discarding cells that were mid-write (odd
 * stamp, or stamp changed under the copy). drain() is the same with a
 * single-consumer cursor, used by the client to piggyback its records
 * onto outgoing requests.
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(TraceConfig config = {});

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Append one record (wait-free, any thread). */
    void publish(const TraceRecord &record);

    /**
     * Tail-sampling verdict for a finished root span: keep when the
     * duration blew the SLO, else by the deterministic trace-id hash.
     */
    bool keepTrace(uint64_t trace_id, uint64_t dur_ns) const;

    /**
     * Copy out every published record, oldest first (best effort:
     * records overwritten mid-snapshot are skipped). Non-destructive —
     * SIGUSR1 dumps and `potluck_cli trace` can both read the window.
     */
    std::vector<TraceRecord> snapshot() const;

    /**
     * Move up to `max` unread records into `out` (appended). Single
     * consumer only; the caller serializes drain() calls. Records
     * overwritten before being drained are counted as lost.
     */
    size_t drain(std::vector<TraceRecord> &out, size_t max);

    size_t capacity() const { return mask_ + 1; }
    const TraceConfig &config() const { return config_; }

    /** Traces kept / dropped by the tail sampler (root spans only). */
    uint64_t tracesKept() const
    {
        return kept_.load(std::memory_order_relaxed);
    }
    uint64_t tracesSampledOut() const
    {
        return sampled_out_.load(std::memory_order_relaxed);
    }

    /// @name Sampler bookkeeping (called by TraceScope).
    /// @{
    void noteKept() { kept_.fetch_add(1, std::memory_order_relaxed); }
    void noteSampledOut()
    {
        sampled_out_.fetch_add(1, std::memory_order_relaxed);
    }
    /// @}

  private:
    static_assert(std::is_trivially_copyable_v<TraceRecord> &&
                      sizeof(TraceRecord) % sizeof(uint64_t) == 0,
                  "a slot stores a TraceRecord as whole 64-bit words");
    static constexpr size_t kRecordWords =
        sizeof(TraceRecord) / sizeof(uint64_t);

    struct Slot
    {
        /** 0 = never written; odd = write in progress; even = record
         * for generation (seq - 2) / 2 is published. */
        std::atomic<uint64_t> seq{0};
        /** The record's bytes. Atomic words, so a reader racing a
         * writer reads a torn cell through atomics (and discards it),
         * never a plain object under a data race. */
        std::atomic<uint64_t> words[kRecordWords];
    };

    /** Copy one slot if it holds a stable published record. */
    bool readSlot(const Slot &slot, TraceRecord &out, uint64_t &pos) const;

    TraceConfig config_;
    size_t mask_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<uint64_t> head_{0};
    uint64_t sample_threshold_; ///< hash(trace_id) < this => keep
    uint64_t drain_cursor_ = 0; ///< single-consumer position
    std::atomic<uint64_t> kept_{0};
    std::atomic<uint64_t> sampled_out_{0};
};

/** Fresh process-unique span id (never 0). */
uint64_t nextSpanId();

/** Fresh trace id (never 0). */
uint64_t newTraceId();

/** Deterministic trace-id hash both endpoints agree on (splitmix64). */
uint64_t traceHash(uint64_t trace_id);

/**
 * Per-thread in-flight trace state. Spans completed while a trace is
 * active buffer here (no allocation, no ring traffic) until the root
 * TraceScope flushes or drops them. `recorder == nullptr` means no
 * trace is active — the one-branch fast path.
 */
struct ActiveTrace
{
    static constexpr size_t kMaxPending = 48;

    FlightRecorder *recorder = nullptr;
    uint64_t trace_id = 0;
    uint64_t parent = 0; ///< current parent span id
    uint8_t proc = kProcService;
    uint32_t pending_count = 0;
    TraceRecord pending[kMaxPending];

    /** Append a completed span (silently drops past kMaxPending). */
    void
    push(const TraceRecord &record)
    {
        if (pending_count < kMaxPending)
            pending[pending_count++] = record;
    }
};

/** This thread's in-flight trace (constant-initialized). */
ActiveTrace &activeTrace();

/**
 * Root span of a trace: establishes the thread's ActiveTrace on
 * construction and makes the tail-sampling call on destruction —
 * flushing every buffered span to the recorder, or dropping them all.
 *
 * If a trace is already active on this thread (e.g. the loopback
 * client's scope is open when the server-side scope would start), the
 * scope degrades to a plain child span of the outer trace.
 *
 * Null recorder => fully inactive (a single branch per method).
 */
class TraceScope
{
  public:
    /**
     * @param recorder  destination ring; null disables the scope
     * @param name      span name (compile-time constant)
     * @param ctx       inbound context; trace_id 0 mints a fresh trace
     * @param proc      kProcService / kProcClient
     * @param detail    optional app-supplied context for the dump;
     *                  the pointed-to string must outlive the scope
     */
    TraceScope(FlightRecorder *recorder, const char *name, TraceContext ctx,
               uint8_t proc, const char *detail = nullptr);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    bool active() const { return mode_ != Mode::Off; }

    /** Context to stamp into an outgoing request: this trace, this
     * span as the remote side's parent. Zeros when inactive. */
    TraceContext
    context() const
    {
        if (mode_ == Mode::Off)
            return {};
        return {activeTrace().trace_id, span_id_};
    }

    uint64_t spanId() const { return span_id_; }

  private:
    enum class Mode : uint8_t
    {
        Off,   ///< null recorder: every method is one branch
        Root,  ///< owns the ActiveTrace; samples + flushes at the end
        Child, ///< nested inside an existing trace: plain span
    };

    Mode mode_ = Mode::Off;
    const char *name_;
    const char *detail_;
    uint64_t span_id_ = 0;
    uint64_t saved_parent_ = 0;
    uint64_t start_ns_ = 0;
};

/**
 * A traced stage: records its elapsed time into a LatencyHistogram
 * (exactly like ScopedSpan — same null-pointer off switch) AND, when a
 * trace is active on this thread, buffers a span record with one
 * shared pair of clock reads. Used at the lookup/put/IPC stage sites.
 */
class TracedSpan
{
  public:
    /** `detail`, when given, must outlive the span (it is copied into
     * the record only at destruction, and only if a trace is live). */
    explicit TracedSpan(const char *name, LatencyHistogram *hist,
                        const char *detail = nullptr)
        : name_(name), detail_(detail), hist_(hist)
    {
        ActiveTrace &trace = activeTrace();
        if (trace.recorder) {
            span_id_ = nextSpanId();
            saved_parent_ = trace.parent;
            trace.parent = span_id_;
        }
        if (hist_ || span_id_)
            start_ns_ = spanNowNs();
    }

    /** Add a second histogram sink (same semantics as ScopedSpan). */
    void
    attach(LatencyHistogram *extra)
    {
        if (hist_ || span_id_)
            extra_ = extra;
    }

    ~TracedSpan()
    {
        if (!hist_ && !span_id_)
            return;
        uint64_t now = spanNowNs();
        uint64_t elapsed = now - start_ns_;
        if (hist_) {
            hist_->record(elapsed);
            if (extra_)
                extra_->record(elapsed);
        }
        if (span_id_) {
            ActiveTrace &trace = activeTrace();
            trace.parent = saved_parent_;
            if (trace.recorder) {
                TraceRecord record;
                record.kind = RecordKind::Span;
                record.proc = trace.proc;
                record.setName(name_);
                if (detail_)
                    record.setDetail(detail_);
                record.trace_id = trace.trace_id;
                record.span_id = span_id_;
                record.parent_span_id = saved_parent_;
                record.start_ns = start_ns_;
                record.dur_ns = elapsed;
                trace.push(record);
            }
        }
    }

    uint64_t spanId() const { return span_id_; }

    TracedSpan(const TracedSpan &) = delete;
    TracedSpan &operator=(const TracedSpan &) = delete;

  private:
    const char *name_;
    const char *detail_;
    LatencyHistogram *hist_;
    LatencyHistogram *extra_ = nullptr;
    uint64_t span_id_ = 0; ///< 0 = not contributing a trace record
    uint64_t saved_parent_ = 0;
    uint64_t start_ns_ = 0;
};

/**
 * Publish one decision event. Never sampled: decisions go straight to
 * the ring. When a trace is active on the calling thread the event is
 * stamped with its trace/parent ids, so an eviction triggered by a
 * traced put() shows up inside that trace. Null recorder = no-op.
 */
void recordDecision(FlightRecorder *recorder, DecisionKind kind,
                    const char *name, const std::string &detail, double a,
                    double b, double c, uint64_t u);

} // namespace potluck::obs

#ifndef POTLUCK_OBS_NO_TRACE
/** Histogram + trace span over the rest of the enclosing scope. */
#define POTLUCK_TRACE_SPAN(name, hist_ptr)                                   \
    ::potluck::obs::TracedSpan POTLUCK_OBS_CONCAT(potluck_tspan_,            \
                                                  __LINE__)(name, hist_ptr)
/** Same, with app-supplied detail text and a named variable so a
 * second histogram sink can be attached once resolved. */
#define POTLUCK_TRACE_NAMED_SPAN(var, name, hist_ptr, detail)                \
    ::potluck::obs::TracedSpan var(name, hist_ptr, detail)
#else
#define POTLUCK_TRACE_SPAN(name, hist_ptr) ((void)(hist_ptr))
#define POTLUCK_TRACE_NAMED_SPAN(var, name, hist_ptr, detail)                \
    ((void)(hist_ptr))
#endif

#endif // POTLUCK_OBS_TRACE_H
