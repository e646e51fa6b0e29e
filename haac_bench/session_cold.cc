/**
 * @file
 * session-cold: a first-contact two-party run.
 *
 * One fresh loopback connection per session, garbler and evaluator on
 * two threads of this process, no pool, no cache, no OT reuse: every
 * session pays inline garbling, a full base OT and evaluation. The
 * circuit is default-scale GradDesc, deep and low-ILP, the counterpart
 * of serve-mix's wide DotProd upload for any change that batches or
 * pipelines independent ANDs.
 */
#include <memory>
#include <thread>

#include "bench.h"
#include "net/loopback.h"
#include "net/remote.h"
#include "net/server.h"

using namespace haac;

namespace hb {

namespace {

constexpr const char *kSpec = "GradDesc";
constexpr size_t kInputSets = 8;

struct Inputs
{
    Workload wl;
    std::vector<std::vector<bool>> garblerBits, evaluatorBits, expected;
};

Inputs
setUp(const Args &args)
{
    Inputs in{resolveWorkload(kSpec), {}, {}, {}};
    const Netlist &nl = in.wl.netlist;
    for (size_t i = 0; i < kInputSets; ++i) {
        in.garblerBits.push_back(
            seededBits(args.seed, 400 + i, nl.numGarblerInputs));
        in.evaluatorBits.push_back(
            seededBits(args.seed, 500 + i, nl.numEvaluatorInputs));
        in.expected.push_back(
            nl.evaluate(in.garblerBits.back(), in.evaluatorBits.back()));
    }
    if (args.injectFault)
        in.expected[0][0] = !in.expected[0][0];
    return in;
}

struct SessionLog
{
    OpLog log;
    OpLog traced;
    std::vector<double> untracedMs;
};

/** One session; returns false on a wrong output or a failure. */
bool
session(const Inputs &in, uint64_t index, uint64_t seed, Tracer *tr,
        SessionLog &out)
{
    const size_t idx = index % kInputSets;
    const Netlist &nl = in.wl.netlist;
    const auto start = Clock::now();
    SpanScope op(tr, "session", -1, index);
    auto [g_end, e_end] = LoopbackTransport::createPair();
    std::unique_ptr<TimedTransport> timed;
    if (tr) {
        timed = std::make_unique<TimedTransport>(*e_end);
        timed->setOp(tr, op.id(), index);
    }
    Transport &e = timed ? static_cast<Transport &>(*timed) : *e_end;

    std::string garbler_error;
    std::thread garbler([&, g = g_end.get()] {
        try {
            g->handshake(PeerRole::Garbler);
            runRemoteGarbler(nl, in.garblerBits[idx], *g,
                             seed * 1000003 + index);
        } catch (const std::exception &ex) {
            garbler_error = ex.what();
        }
    });
    bool ok = false;
    try {
        SpanScope proto(tr, "protocol", op.id(), index);
        e.handshake(PeerRole::Evaluator);
        ok = runRemoteEvaluator(nl, in.evaluatorBits[idx], e).outputs ==
             in.expected[idx];
    } catch (const std::exception &ex) {
        info("error: evaluator failed: %s", ex.what());
        timed.reset();
        e_end.reset(); // closing the pipe unblocks the garbler
    }
    garbler.join();
    const double ms = msBetween(start, Clock::now());
    if (!garbler_error.empty()) {
        info("error: garbler failed: %s", garbler_error.c_str());
        ok = false;
    }
    if (!ok)
        return false;
    out.log.latencyMs.push_back(ms);
    out.log.wire.push_back(wireSnapshot(e));
    out.log.gates += nl.numGates();
    if (timed) {
        out.traced.latencyMs.push_back(ms);
        out.traced.sendMs.push_back(timed->sendMs());
        out.traced.recvWaitMs.push_back(timed->recvWaitMs());
    } else {
        out.untracedMs.push_back(ms);
    }
    return true;
}

} // namespace

RunResult
runSessionCold(const Args &args)
{
    RunResult result;
    std::vector<double> setup_s;
    Inputs in;
    for (int rep = 0; rep < (args.trace ? 1 : 15); ++rep) {
        const auto start = Clock::now();
        in = setUp(args);
        setup_s.push_back(secondsSince(start));
    }

    const auto epoch = Clock::now();
    Tracer tracer(epoch);
    SessionLog log;
    uint64_t index = 0;
    while (secondsSince(epoch) < args.seconds) {
        // Traced runs trace every other session; the rest are the
        // overhead baseline.
        Tracer *tr = args.trace && index % 2 == 1 ? &tracer : nullptr;
        result.check(session(in, index++, args.seed, tr, log));
    }
    const double elapsed = secondsSince(epoch);
    result.check(wireStable(log.log.wire));

    info("session-cold: %s, %u gates (%u AND), %u evaluator bits, "
         "%.2f s window",
         kSpec, in.wl.netlist.numGates(), in.wl.netlist.numAndGates(),
         in.wl.netlist.numEvaluatorInputs, elapsed);
    printLatency("session", log.log.latencyMs);
    if (!log.log.wire.empty())
        info("    wire/session: down=%llu B up=%llu B frames=%llu "
             "(stable=%s)",
             (unsigned long long)log.log.wire.front().bytesDown,
             (unsigned long long)log.log.wire.front().bytesUp,
             (unsigned long long)log.log.wire.front().frames,
             wireStable(log.log.wire) ? "yes" : "NO");

    if (!args.trace) {
        addEndToEnd(log.log.latencyMs, log.log.gates, elapsed, result);
        result.add("setup_s", median(setup_s), "s");
        printSetup(setup_s);
        const double gps = double(log.log.gates) / elapsed;
        info("paper reference (ungated): %.3f M gates/s per session vs "
             "~3.3 M gates/s per core for the paper's CPU baseline",
             gps / 1e6);
        return result;
    }

    std::vector<double> self;
    for (size_t i = 0; i < log.traced.latencyMs.size(); ++i)
        self.push_back(log.traced.latencyMs[i] - log.traced.recvWaitMs[i]);
    info("    traced n=%zu: span p50=%.3f ms = self %.3f + "
         "net.recv_wait %.3f (medians)",
         log.traced.latencyMs.size(), median(log.traced.latencyMs),
         median(self), median(log.traced.recvWaitMs));

    addNetLayer(log.log.wire.empty() ? WireCount{} : log.log.wire.front(),
                median(log.traced.sendMs), median(log.traced.recvWaitMs),
                result);
    addTraceLayer(splitOps(tracer, "session"), median(log.untracedMs),
                  result);
    addServeLayer(probeServe(kSpec, args, result), result);

    LayerInputs layers;
    layers.circuits = {{kSpec, &in.wl.netlist}};
    layers.evaluatorBits = in.wl.netlist.numEvaluatorInputs;
    probeLayers(layers, args, result);
    return result;
}

} // namespace hb
