/**
 * @file
 * haac_bench: shared types for the three workloads and the layer probes.
 *
 * Everything here sits outside the library: the benchmark times calls
 * into the library's public functions and records its own spans around
 * them. See METRICS.md for every metric name and what it should move.
 */
#ifndef HAAC_BENCH_BENCH_H
#define HAAC_BENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "net/transport.h"

namespace hb {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Command line of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Flip one expected output bit of the first checked operation
     *  (the self-test proves such a mismatch is counted). */
    bool injectFault = false;
};

/** Deterministic input bits: stream @p stream of seed @p seed. */
std::vector<bool> seededBits(uint64_t seed, uint64_t stream, size_t n);

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end metrics (untraced run) or per-layer (traced run). */
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Count one checked operation. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Human-readable line on stdout (never the last line). */
void info(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

// --- tracing --------------------------------------------------------------

struct Span
{
    const char *name = "";
    double startMs = 0;
    double endMs = 0;
    int32_t parent = -1; ///< index into the same Tracer, -1 = root
    uint64_t request = 0;
};

/**
 * Span recorder owned by one thread; spans stay in memory until the run
 * ends. Times are milliseconds since the tracer's epoch.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    int32_t begin(const char *name, int32_t parent, uint64_t request);
    void end(int32_t id);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Scoped span; a null tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, int32_t parent,
              uint64_t request)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, parent, request) : -1)
    {}
    ~SpanScope()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int32_t id() const { return id_; }

  private:
    Tracer *tracer_;
    int32_t id_;
};

/** Per-operation split of a root span: its length and blocking reads. */
struct OpSplit
{
    double spanMs = 0;
    double readWaitMs = 0;
    /** Children other than reads, by name. */
    std::vector<std::pair<const char *, double>> children;
};

/** Split every root span named @p root of @p tracer. */
std::vector<OpSplit> splitOps(const Tracer &tracer, const char *root);

/**
 * Transport decorator: forwards writeAll/readAll to @p inner and records
 * their time; bytes and frames are counted by the Transport base class,
 * whose framing and handshake run on this object. With a tracer
 * attached, every blocking readAll becomes a span under the current
 * operation span.
 */
class TimedTransport : public haac::Transport
{
  public:
    explicit TimedTransport(haac::Transport &inner) : inner_(inner) {}

    void writeAll(const uint8_t *data, size_t n) override;
    void readAll(uint8_t *data, size_t n) override;
    std::string describe() const override;

    /** Attach (or detach, null) the tracer and the current op span. */
    void
    setOp(Tracer *tracer, int32_t span, uint64_t request)
    {
        tracer_ = tracer;
        opSpan_ = span;
        request_ = request;
    }

    double sendMs() const { return sendMs_; }
    double recvWaitMs() const { return recvMs_; }

  private:
    haac::Transport &inner_;
    Tracer *tracer_ = nullptr;
    int32_t opSpan_ = -1;
    uint64_t request_ = 0;
    double sendMs_ = 0;
    double recvMs_ = 0;
};

/** Client-side wire counters of one operation (exact, data-oblivious). */
struct WireCount
{
    uint64_t bytesDown = 0;
    uint64_t bytesUp = 0;
    uint64_t frames = 0;

    bool
    operator==(const WireCount &o) const
    {
        return bytesDown == o.bytesDown && bytesUp == o.bytesUp &&
               frames == o.frames;
    }
    bool operator!=(const WireCount &o) const { return !(*this == o); }
};

WireCount wireSnapshot(const haac::Transport &t);
WireCount wireDelta(const WireCount &before, const WireCount &after);

// --- workloads ------------------------------------------------------------

/** One request class's (or one operation kind's) client-side record. */
struct OpLog
{
    std::vector<double> latencyMs;
    std::vector<WireCount> wire;
    std::vector<double> ackMs; ///< ack / admission call, when present
    std::vector<double> sendMs;
    std::vector<double> recvWaitMs; ///< traced windows only
    uint64_t gates = 0;             ///< circuit gates completed
};

/** The per-layer metrics that come from a served cycle mix. */
struct ServeLayer
{
    double poolHitRatio = 0;
    double componentPoolHitRatio = 0;
    double otReuseRatio = 0;
    double ackMs = 0;
    double admissionMs = 0;
    double serverSessionMs = 0;
    double prewarmS = 0;
    /** Client wire/time per cycle (pooled + chained + upload). */
    WireCount cycleWire;
    double cycleSendMs = 0;
    double cycleRecvWaitMs = 0;
    double linkBytes = 0; ///< chain link-table bytes per chained request
};

/**
 * A GcServer with a GarblePool and ComponentPool, driven by closed-loop
 * loopback clients that each repeat pooled -> chained -> upload.
 * serve-mix runs it as its traffic; the other workloads' traced runs
 * run one short probe of it over their own circuit.
 */
struct ServeConfig
{
    std::string pooledSpec = "Hamm";
    std::string chainSpec = "ChainProdCmp:32";
    std::string uploadSpec = "DotProd";
    uint32_t connections = 2;
    /** Cycles each connection may run in the timed window; the pool is
     *  prewarmed to cover exactly this many. */
    uint32_t cycleBudget = 1;
    /** Setups to time (the last one is measured). */
    uint32_t setupReps = 1;
    double seconds = 1;
    /** Wrap each client in a TimedTransport and trace every other
     *  cycle; the untraced cycles are the overhead baseline. */
    bool traced = false;
};

struct ServeOutcome
{
    std::vector<double> setupS;
    double elapsedS = 0;
    OpLog pooled, chained, upload;
    /** Traced cycles only (empty when untraced). */
    OpLog tracedPooled, tracedChained, tracedUpload;
    std::vector<OpSplit> tracedSplits;
    double untracedP50Ms = 0; ///< all classes, untraced cycles
    ServeLayer layer;
    uint64_t serverFailures = 0; ///< failed + refused + pool misses
};

ServeOutcome runServe(const ServeConfig &cfg, const Args &args,
                      RunResult &result);

RunResult runServeMix(const Args &args);
RunResult runSessionCold(const Args &args);
RunResult runModelSweep(const Args &args);

// --- layer probes ---------------------------------------------------------

/** Inputs of the per-layer probes: the workload's own circuits. */
struct LayerInputs
{
    /** Name and netlist of each circuit. */
    std::vector<std::pair<std::string, const haac::Netlist *>> circuits;
    /** Evaluator input bits of one workload operation. */
    size_t evaluatorBits = 0;
};

/**
 * Time each layer's public functions on @p in (crypto, gc, OT,
 * loopback, chain linking, Bristol parse + analysis, compile,
 * simulate) and append the per-layer metrics to @p result.
 */
void probeLayers(const LayerInputs &in, const Args &args,
                 RunResult &result);

/** Append the serve.* and chain.link_bytes metrics. */
void addServeLayer(const ServeLayer &layer, RunResult &result);

/** Append the net.* metrics of one operation (loopback rate aside). */
void addNetLayer(const WireCount &wire, double send_ms,
                 double recv_wait_ms, RunResult &result);

/** A short serve probe over one of the workload's own circuits, for
 *  the serve.* / net.* metrics of workloads that run no server. */
ServeLayer probeServe(const std::string &spec, const Args &args,
                      RunResult &result);

/** Append trace.op_ms / trace.self_ms / trace.overhead_pct. */
void addTraceLayer(const std::vector<OpSplit> &splits,
                   double untraced_p50_ms, RunResult &result);

/**
 * End-to-end metrics shared by all workloads (setup_s excluded). The
 * 90th percentile is printed with its sample count but not reported:
 * under host contention its run-to-run spread reached the bound.
 */
void addEndToEnd(const std::vector<double> &latency_ms, uint64_t gates,
                 double elapsed_s, RunResult &result);

/** Print "name n=.. p50=.. p90=.." for one latency sample. */
void printLatency(const char *name, const std::vector<double> &ms);

/** Print the set-up repetitions behind setup_s. */
void printSetup(const std::vector<double> &seconds);

/** True when every entry of @p wire equals the first. */
bool wireStable(const std::vector<WireCount> &wire);

} // namespace hb

#endif // HAAC_BENCH_BENCH_H
