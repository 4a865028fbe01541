/**
 * @file
 * Concurrent throughput of the function-domain lock layout: every
 * registered function is one lock domain (DESIGN.md §10), so traffic
 * to different functions never shares a lock, while traffic to one
 * function shares one reader/writer lock.
 *
 * Matrix: functions {1, 4} x client threads {1, 4} x put share
 * {0, 10, 50 %} x key length {32, 768 floats}. Each run starts a
 * fresh service holding kEntriesPerFunction exact-key entries per
 * function in a Linear (flat) slot, with tracing and dropout off.
 * Every worker draws each operation's function uniformly; a lookup
 * asks for a resident key (always a hit), a put stores a fresh key
 * (the tuner probe runs, then the insert), so a function's index
 * grows with the puts it takes. Capacity is sized so no run evicts.
 * A cell reports the median of kRuns runs.
 *
 * Expected shape: lookups run under the shared lock, so read-only
 * traffic scales with threads at any function count. Puts hold their
 * function's exclusive lock, so write-heavy traffic to ONE function
 * serializes, and spreading it over 4 functions lets the 4 workers
 * proceed in parallel. The shape check asserts exactly that: at 4
 * threads and 50 % puts, 4 functions serve at least kMinSpread x the
 * operations/s of 1 function, for both key lengths.
 */
#include "bench_common.h"

#include <atomic>
#include <thread>

#include "core/potluck_service.h"
#include "util/clock.h"
#include "util/rng.h"

using namespace potluck;

namespace {

constexpr size_t kEntriesPerFunction = 2048;
constexpr int kRuns = 3;
/** Margin of the shape check. Five runs on a shared 4-vCPU host read
 * 2.46x-3.24x (768 floats) and 4.08x-4.90x (32 floats); one lock over
 * all functions reads 1.32x-1.39x for 768 floats (EXPERIMENTS.md). */
constexpr double kMinSpread = 2.0;

FeatureVector
keyOf(size_t i, size_t dim)
{
    std::vector<float> v(dim);
    for (size_t d = 0; d < dim; ++d)
        v[d] = static_cast<float>((i * 131 + d * 31) % 9973);
    return FeatureVector(std::move(v));
}

std::string
functionName(size_t f)
{
    return "f" + std::to_string(f);
}

struct Cell
{
    size_t dim;
    int put_pct;
    size_t functions;
    int threads;
};

/** Operations per worker thread: sized for ~0.1-0.3 s per run. */
int
opsPerThread(const Cell &cell)
{
    return cell.dim > 64 ? 3000 : 8000;
}

/** Run one cell on a fresh service; returns aggregate operations/s. */
double
measureOnce(const Cell &cell)
{
    const int ops = opsPerThread(cell);
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0; // deterministic hot path
    cfg.warmup_entries = 0;        // the tuner probe runs on every put
    cfg.max_entries = cell.functions * kEntriesPerFunction +
                      static_cast<size_t>(cell.threads * ops);
    cfg.max_bytes = 0;
    cfg.enable_tracing = false; // measure the lock layout, not spans
    cfg.enable_recorder = false;
    cfg.enable_heat = false;
    PotluckService service(cfg);

    // Function f holds keys f, f + F, f + 2F, ... (F = functions).
    for (size_t f = 0; f < cell.functions; ++f)
        service.registerKeyType(functionName(f),
                                {"vec", Metric::L2, IndexKind::Linear});
    const size_t resident = cell.functions * kEntriesPerFunction;
    for (size_t i = 0; i < resident; ++i)
        service.put(functionName(i % cell.functions), "vec",
                    keyOf(i, cell.dim), encodeInt(static_cast<int>(i)), {});

    std::atomic<uint64_t> misses{0};
    Stopwatch sw;
    std::vector<std::thread> workers;
    for (int t = 0; t < cell.threads; ++t) {
        workers.emplace_back([&, t]() {
            Rng rng(1000 + static_cast<uint64_t>(t));
            // Fresh put keys never collide with resident ones or with
            // another thread's.
            size_t fresh = resident + static_cast<size_t>(t) * ops;
            for (int i = 0; i < ops; ++i) {
                size_t f = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(cell.functions) - 1));
                const std::string fn = functionName(f);
                if (rng.uniformInt(0, 99) < cell.put_pct) {
                    service.put(fn, "vec", keyOf(fresh++, cell.dim),
                                encodeInt(i), {});
                    continue;
                }
                size_t row = static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(kEntriesPerFunction) - 1));
                LookupResult r = service.lookup(
                    "bench", fn, "vec",
                    keyOf(row * cell.functions + f, cell.dim));
                if (!r.hit)
                    misses.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    double secs = sw.elapsedUs() / 1e6;
    POTLUCK_ASSERT(misses.load() == 0, "bench lookups must all hit");
    return static_cast<double>(cell.threads) * ops / secs;
}

/** Median operations/s over kRuns fresh runs of one cell. */
double
measure(const Cell &cell)
{
    SampleSet runs;
    for (int r = 0; r < kRuns; ++r)
        runs.add(measureOnce(cell));
    return runs.median();
}

} // namespace

int
main()
{
    setLogVerbose(false);
    bench::banner("concurrent throughput",
                  "operations/s by function count, threads, put share "
                  "and key length",
                  "at 4 threads and 50% puts, 4 functions (4 lock "
                  "domains) beat 1 function");

    bench::Table table(
        {"key floats", "puts %", "functions", "threads", "ops/s"});
    // spread[d] = 4-function / 1-function ops/s at 4 threads, 50 % puts.
    double spread[2] = {0.0, 0.0};
    const size_t dims[2] = {32, 768};
    for (int d = 0; d < 2; ++d) {
        for (int put_pct : {0, 10, 50}) {
            double four_threads[2] = {0.0, 0.0};
            for (size_t functions : {size_t{1}, size_t{4}}) {
                for (int threads : {1, 4}) {
                    Cell cell{dims[d], put_pct, functions, threads};
                    double ops_s = measure(cell);
                    table.cell(static_cast<double>(cell.dim), 0)
                        .cell(static_cast<double>(put_pct), 0)
                        .cell(static_cast<double>(functions), 0)
                        .cell(static_cast<double>(threads), 0)
                        .cell(ops_s, 0)
                        .endRow();
                    if (threads == 4)
                        four_threads[functions == 4] = ops_s;
                }
            }
            if (put_pct == 50)
                spread[d] = four_threads[1] / four_threads[0];
        }
    }

    unsigned hw = std::thread::hardware_concurrency();
    std::cout << "\n4 threads, 50% puts, 4 functions / 1 function: "
              << formatFixed(spread[0], 2) << "x (32 floats), "
              << formatFixed(spread[1], 2) << "x (768 floats) on " << hw
              << " hardware thread" << (hw == 1 ? "" : "s") << "\n";
    if (hw < 4) {
        // Lock-domain scaling needs cores to run the workers on; with
        // fewer than 4 hardware threads the 4 workers time-slice one
        // another and every layout serializes, so the ratio measures
        // the scheduler, not the locks. Report, don't assert.
        std::cout << "[skipped] < 4 hardware threads: cannot measure "
                     "parallel scaling on this machine\n";
        return 0;
    }
    bool ok = spread[0] >= kMinSpread && spread[1] >= kMinSpread;
    std::cout << "shape check (4 functions >= " << formatFixed(kMinSpread, 1)
              << "x 1 function at 4 threads, 50% puts): "
              << (ok ? "PASS" : "FAIL") << "\n";
    return ok ? 0 : 1;
}
