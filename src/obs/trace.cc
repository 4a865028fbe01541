#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>

namespace potluck::obs {

namespace {

/** splitmix64: the finalizer is a bijection on 64-bit values. */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Per-process entropy so span/trace ids from different processes on
 * the same machine do not collide (client and daemon both mint ids). */
uint64_t
processSeed()
{
    static const uint64_t seed = [] {
        uint64_t s = static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
        s ^= static_cast<uint64_t>(::getpid()) << 32;
        return splitmix64(s);
    }();
    return seed;
}

std::atomic<uint64_t> g_span_counter{1};
std::atomic<uint64_t> g_trace_counter{1};

thread_local ActiveTrace t_active;

size_t
roundUpPow2(size_t n)
{
    size_t p = 16; // floor: a recorder this small is still functional
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

uint64_t
nextSpanId()
{
    uint64_t id = splitmix64(
        processSeed() + g_span_counter.fetch_add(1, std::memory_order_relaxed));
    return id ? id : 1;
}

uint64_t
newTraceId()
{
    uint64_t id = splitmix64(processSeed() ^
                             (g_trace_counter.fetch_add(
                                  1, std::memory_order_relaxed) *
                              0xd6e8feb86659fd93ULL));
    return id ? id : 1;
}

uint64_t
traceHash(uint64_t trace_id)
{
    return splitmix64(trace_id);
}

ActiveTrace &
activeTrace()
{
    return t_active;
}

FlightRecorder::FlightRecorder(TraceConfig config)
    : config_(config), mask_(roundUpPow2(config.capacity) - 1),
      slots_(new Slot[mask_ + 1])
{
    if (config_.sample_prob >= 1.0) {
        sample_threshold_ = UINT64_MAX;
    } else if (config_.sample_prob <= 0.0) {
        sample_threshold_ = 0;
    } else {
        sample_threshold_ = static_cast<uint64_t>(
            config_.sample_prob * 18446744073709551616.0 /* 2^64 */);
    }
}

void
FlightRecorder::publish(const TraceRecord &record)
{
    uint64_t pos = head_.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = slots_[pos & mask_];

    // Claim the slot. If a writer lapped a full ring and is still
    // mid-write here, drop this record rather than tear the cell —
    // a saturated flight recorder loses the oldest data by design.
    uint64_t cur = slot.seq.load(std::memory_order_relaxed);
    if (cur & 1)
        return;
    if (!slot.seq.compare_exchange_strong(cur, 2 * pos + 1,
                                          std::memory_order_relaxed))
        return;
    // Each body word is a release store, so a reader whose acquire
    // load sees it also sees the odd stamp on its re-read (seqlock
    // writer protocol) and discards the cell.
    uint64_t words[kRecordWords];
    std::memcpy(words, &record, sizeof(record));
    for (size_t i = 0; i < kRecordWords; ++i)
        slot.words[i].store(words[i], std::memory_order_release);
    slot.seq.store(2 * pos + 2, std::memory_order_release);
}

bool
FlightRecorder::readSlot(const Slot &slot, TraceRecord &out,
                         uint64_t &pos) const
{
    uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1))
        return false;
    // Acquire loads keep the body copy before the validation re-read.
    uint64_t words[kRecordWords];
    for (size_t i = 0; i < kRecordWords; ++i)
        words[i] = slot.words[i].load(std::memory_order_acquire);
    uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
    if (s1 != s2)
        return false; // overwritten mid-copy: discard the torn cell
    std::memcpy(&out, words, sizeof(out));
    pos = (s1 - 2) / 2;
    return true;
}

bool
FlightRecorder::keepTrace(uint64_t trace_id, uint64_t dur_ns) const
{
    if (dur_ns >= config_.slo_ns)
        return true;
    return traceHash(trace_id) < sample_threshold_;
}

std::vector<TraceRecord>
FlightRecorder::snapshot() const
{
    uint64_t head = head_.load(std::memory_order_acquire);
    uint64_t capacity = mask_ + 1;
    uint64_t begin = head > capacity ? head - capacity : 0;
    std::vector<TraceRecord> out;
    out.reserve(static_cast<size_t>(std::min<uint64_t>(head - begin,
                                                       capacity)));
    for (uint64_t pos = begin; pos < head; ++pos) {
        TraceRecord record;
        uint64_t gen;
        if (readSlot(slots_[pos & mask_], record, gen))
            out.push_back(record);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.start_ns < b.start_ns;
                     });
    return out;
}

size_t
FlightRecorder::drain(std::vector<TraceRecord> &out, size_t max)
{
    uint64_t head = head_.load(std::memory_order_acquire);
    uint64_t capacity = mask_ + 1;
    uint64_t pos = drain_cursor_;
    if (head > capacity && pos < head - capacity)
        pos = head - capacity; // the gap was overwritten before draining
    size_t moved = 0;
    for (; pos < head && moved < max; ++pos) {
        TraceRecord record;
        uint64_t gen;
        if (readSlot(slots_[pos & mask_], record, gen) && gen == pos) {
            out.push_back(record);
            ++moved;
        }
    }
    drain_cursor_ = pos;
    return moved;
}

TraceScope::TraceScope(FlightRecorder *recorder, const char *name,
                       TraceContext ctx, uint8_t proc, const char *detail)
    : name_(name), detail_(detail)
{
    if (!recorder)
        return;
    ActiveTrace &trace = t_active;
    span_id_ = nextSpanId();
    if (trace.recorder) {
        // A trace is already live on this thread (e.g. the loopback
        // client's root is open): join it as a child span.
        mode_ = Mode::Child;
        saved_parent_ = trace.parent;
        trace.parent = span_id_;
        start_ns_ = spanNowNs();
        return;
    }
    mode_ = Mode::Root;
    saved_parent_ = ctx.span_id; // the remote parent, kept in the record
    trace.recorder = recorder;
    trace.trace_id = ctx.trace_id ? ctx.trace_id : newTraceId();
    trace.proc = proc;
    trace.parent = span_id_;
    trace.pending_count = 0;
    start_ns_ = spanNowNs();
}

TraceScope::~TraceScope()
{
    if (mode_ == Mode::Off)
        return;
    ActiveTrace &trace = t_active;
    uint64_t dur = spanNowNs() - start_ns_;

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
    record.dur_ns = dur;

    if (mode_ == Mode::Child) {
        trace.parent = saved_parent_;
        trace.push(record);
        return;
    }

    // Root: the whole trace is now known — make the tail-sampling call
    // and flush or drop every buffered span in one go. Deactivate the
    // thread state first so the publishes themselves are not traced.
    FlightRecorder *recorder = trace.recorder;
    trace.recorder = nullptr;
    if (recorder->keepTrace(trace.trace_id, dur)) {
        for (uint32_t i = 0; i < trace.pending_count; ++i)
            recorder->publish(trace.pending[i]);
        recorder->publish(record);
        recorder->noteKept();
    } else {
        recorder->noteSampledOut();
    }
    trace.pending_count = 0;
    trace.trace_id = 0;
    trace.parent = 0;
}

void
recordDecision(FlightRecorder *recorder, DecisionKind kind, const char *name,
               const std::string &detail, double a, double b, double c,
               uint64_t u)
{
    if (!recorder)
        return;
    TraceRecord record;
    record.kind = RecordKind::Decision;
    record.decision = kind;
    record.setName(name);
    record.setDetail(detail.c_str());
    ActiveTrace &trace = t_active;
    if (trace.recorder == recorder) {
        // Link the decision into the request trace that triggered it.
        record.trace_id = trace.trace_id;
        record.parent_span_id = trace.parent;
        record.proc = trace.proc;
    }
    record.span_id = nextSpanId();
    record.start_ns = spanNowNs();
    record.a = a;
    record.b = b;
    record.c = c;
    record.u = u;
    recorder->publish(record);
}

} // namespace potluck::obs
