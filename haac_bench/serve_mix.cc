/**
 * @file
 * serve-mix: the traffic haac_server exists for.
 *
 * One in-process GcServer (default ServerOptions) serves closed-loop
 * LoopbackTransport clients, one request outstanding per connection.
 * Every connection repeats pooled -> chained -> upload:
 *
 *  - pooled:  a registry circuit replayed from a prewarmed GarblePool;
 *  - chained: a ChainPlan linked per request from a prewarmed
 *             ComponentPool;
 *  - upload:  a Bristol netlist through the admission gate, garbled
 *             inline by the same garbler the pooled class replays.
 *
 * Base OT is paid per connection by one warm-up cycle in setup, so the
 * timed window sees OT extension, serve/, chain/ and circuit/ admission
 * on the request path and nothing else.
 */
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.h"
#include "chain/workloads.h"
#include "circuit/bristol.h"
#include "net/loopback.h"
#include "net/server.h"
#include "serve/component_pool.h"
#include "serve/pool.h"

using namespace haac;

namespace hb {

namespace {

/** Input sets per class: requests rotate through them. */
constexpr size_t kInputSets = 8;

struct ClassInputs
{
    std::vector<std::vector<bool>> evaluatorBits;
    std::vector<std::vector<bool>> expected;
};

/** Client-side copies of what the server will run. */
struct Circuits
{
    std::string pooledSpec, chainSpec;
    Workload pooled;
    chain::ChainWorkload chain;
    std::string bristol;
    Netlist upload; ///< the parsed export, as the server admits it
    ClassInputs pooledIn, chainIn, uploadIn;
};

Circuits
makeCircuits(const ServeConfig &cfg, uint64_t seed, bool inject_fault)
{
    Circuits c{cfg.pooledSpec,
               cfg.chainSpec,
               resolveWorkload(cfg.pooledSpec),
               chain::resolveChainWorkload(cfg.chainSpec),
               "",
               {},
               {},
               {},
               {}};
    c.bristol = writeBristolString(resolveWorkload(cfg.uploadSpec).netlist);
    c.upload = readBristolString(c.bristol);
    for (size_t i = 0; i < kInputSets; ++i) {
        std::vector<bool> e =
            seededBits(seed, 100 + i, c.pooled.netlist.numEvaluatorInputs);
        c.pooledIn.expected.push_back(
            c.pooled.netlist.evaluate(c.pooled.garblerBits, e));
        c.pooledIn.evaluatorBits.push_back(std::move(e));

        e = seededBits(seed, 200 + i, c.chain.plan.evaluatorInputs);
        c.chainIn.expected.push_back(
            c.chain.plan.evaluate(c.chain.garblerBits, e));
        c.chainIn.evaluatorBits.push_back(std::move(e));

        // The export turns the constant-one wire into a trailing
        // evaluator input, which must carry 1; the server garbles an
        // upload with all-zero inputs of its own.
        e = seededBits(seed, 300 + i, c.upload.numEvaluatorInputs - 1);
        e.push_back(true);
        c.uploadIn.expected.push_back(c.upload.evaluate(
            std::vector<bool>(c.upload.numGarblerInputs, false), e));
        c.uploadIn.evaluatorBits.push_back(std::move(e));
    }
    if (inject_fault)
        c.pooledIn.expected[0][0] = !c.pooledIn.expected[0][0];
    return c;
}

struct Client
{
    std::unique_ptr<LoopbackTransport> loop;
    std::unique_ptr<TimedTransport> timed; ///< traced runs only
    OtConnectionCache ot;
    std::unique_ptr<Tracer> tracer;
    OpLog log[3];
    OpLog tracedLog[3];
    std::vector<double> untracedMs;
    uint64_t requests = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool alive = true;

    Transport &
    transport()
    {
        return timed ? static_cast<Transport &>(*timed) : *loop;
    }
};

enum Cls
{
    kPooled = 0,
    kChained = 1,
    kUpload = 2
};
const char *const kRoot[3] = {"request.pooled", "request.chained",
                              "request.upload"};

/** Send one request of class @p k and check its outputs. */
void
request(Client &cl, const Circuits &c, int k, bool first, Tracer *tr,
        bool record_traced)
{
    Transport &t = cl.transport();
    const size_t idx = cl.requests % kInputSets;
    const uint64_t rid = ++cl.requests;
    const WireCount before = wireSnapshot(t);
    const double send0 = cl.timed ? cl.timed->sendMs() : 0;
    const double wait0 = cl.timed ? cl.timed->recvWaitMs() : 0;
    RemoteOptions ropts;
    ropts.otCache = &cl.ot;

    bool ok = false;
    double ack_ms = 0;
    const auto start = Clock::now();
    try {
        SpanScope req(tr, kRoot[k], -1, rid);
        if (cl.timed)
            cl.timed->setOp(tr, req.id(), rid);
        {
            SpanScope ack(tr, k == kUpload ? "admission" : "ack", req.id(),
                          rid);
            if (k == kPooled && first)
                clientHello(t, PeerRole::Evaluator, c.pooledSpec);
            else if (k == kUpload)
                clientUploadRequest(t, c.bristol);
            else
                clientRequest(t, k == kPooled ? c.pooledSpec : c.chainSpec);
            ack_ms = msBetween(start, Clock::now());
        }
        SpanScope proto(tr, "protocol", req.id(), rid);
        if (k == kPooled)
            ok = runRemoteEvaluator(c.pooled.netlist,
                                    c.pooledIn.evaluatorBits[idx], t, ropts)
                     .outputs == c.pooledIn.expected[idx];
        else if (k == kChained)
            ok = chain::runChainEvaluator(c.chain.plan,
                                          c.chainIn.evaluatorBits[idx], t,
                                          ropts)
                     .outputs == c.chainIn.expected[idx];
        else
            ok = runRemoteEvaluator(c.upload, c.uploadIn.evaluatorBits[idx],
                                    t, ropts)
                     .outputs == c.uploadIn.expected[idx];
    } catch (const std::exception &e) {
        info("error: %s request failed: %s", kRoot[k], e.what());
        cl.alive = false; // the server drops a connection on failure
    }
    const double ms = msBetween(start, Clock::now());
    if (cl.timed)
        cl.timed->setOp(nullptr, -1, 0);
    ++cl.attempted;
    if (!ok) {
        ++cl.failed;
        return;
    }
    OpLog &log = cl.log[k];
    log.latencyMs.push_back(ms);
    log.wire.push_back(wireDelta(before, wireSnapshot(t)));
    log.ackMs.push_back(ack_ms);
    log.gates += k == kPooled    ? c.pooled.netlist.numGates()
                 : k == kChained ? c.chain.plan.totalGates()
                                 : c.upload.numGates();
    if (record_traced) {
        OpLog &tl = cl.tracedLog[k];
        tl.latencyMs.push_back(ms);
        tl.sendMs.push_back(cl.timed->sendMs() - send0);
        tl.recvWaitMs.push_back(cl.timed->recvWaitMs() - wait0);
    } else {
        cl.untracedMs.push_back(ms);
    }
}

/**
 * One complete set-up. Members are declared so that destruction
 * closes the clients first (ending their server sessions), then joins
 * the server, then stops the pools the server borrows.
 */
struct Rig
{
    std::unique_ptr<serve::GarblePool> pool;
    std::unique_ptr<serve::ComponentPool> components;
    std::unique_ptr<GcServer> server;
    std::vector<std::unique_ptr<Client>> clients;
    double prewarmS = 0;
    GcServer::Totals base; ///< after the warm-up cycles
};

std::unique_ptr<Rig>
setUp(const ServeConfig &cfg, const Circuits &c, Clock::time_point epoch)
{
    auto rig = std::make_unique<Rig>();
    const size_t cycles = size_t(cfg.connections) * (cfg.cycleBudget + 1);
    serve::PoolOptions popts;
    popts.depth = cycles;
    // Fillers stay idle until a queue is empty: the depth covers the
    // window, so no refill garbling competes with the sessions.
    popts.lowWater = 1;
    popts.threads = std::max(1u, std::thread::hardware_concurrency());
    rig->pool = std::make_unique<serve::GarblePool>(popts);
    rig->pool->track(c.pooledSpec, c.pooled.netlist);

    size_t max_uses = 1; // a spec used twice in a plan pops twice
    for (const chain::ComponentSpec &s : c.chain.plan.nodes)
        max_uses = std::max<size_t>(
            max_uses, size_t(std::count(c.chain.plan.nodes.begin(),
                                        c.chain.plan.nodes.end(), s)));
    serve::PoolOptions copts = popts;
    copts.depth = cycles * max_uses;
    rig->components = std::make_unique<serve::ComponentPool>(copts);
    rig->components->trackPlan(c.chain.plan);

    const auto warm = Clock::now();
    rig->pool->prewarm();
    rig->components->prewarm();
    rig->prewarmS = secondsSince(warm);

    ServerOptions sopts; // defaults, plus the two pools
    sopts.pool = rig->pool.get();
    sopts.componentPool = rig->components.get();
    rig->server = std::make_unique<GcServer>(sopts);
    for (uint32_t i = 0; i < cfg.connections; ++i) {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        rig->server->submit(std::move(server_end));
        auto cl = std::make_unique<Client>();
        cl->loop = std::move(client_end);
        if (cfg.traced) {
            cl->timed = std::make_unique<TimedTransport>(*cl->loop);
            cl->tracer = std::make_unique<Tracer>(epoch);
        }
        rig->clients.push_back(std::move(cl));
    }
    // Warm-up cycle per connection, in parallel as in the window: pays
    // base OT and fills the server's workload caches.
    std::vector<std::thread> threads;
    for (auto &cl : rig->clients)
        threads.emplace_back([&c, cl = cl.get()] {
            for (int k = 0; k < 3 && cl->alive; ++k)
                request(*cl, c, k, k == kPooled, nullptr, false);
            for (OpLog &l : cl->log)
                l = OpLog{};
            cl->untracedMs.clear();
        });
    for (std::thread &t : threads)
        t.join();
    rig->base = rig->server->totals();
    return rig;
}

/** Close every connection and wait for the server to account them. */
GcServer::Totals
tearDown(Rig &rig)
{
    for (auto &cl : rig.clients) {
        cl->timed.reset();
        cl->loop.reset();
    }
    rig.server->drain();
    return rig.server->totals();
}

void
merge(OpLog &into, const OpLog &from)
{
    auto cat = [](auto &a, const auto &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    cat(into.latencyMs, from.latencyMs);
    cat(into.wire, from.wire);
    cat(into.ackMs, from.ackMs);
    cat(into.sendMs, from.sendMs);
    cat(into.recvWaitMs, from.recvWaitMs);
    into.gates += from.gates;
}

/** Failed sessions, refused uploads and pool misses of one server. */
uint64_t
serverFailures(const GcServer::Totals &t)
{
    return t.sessionsFailed + t.uploadsRefused + t.poolMisses +
           (t.componentsLinked - t.componentPoolHits);
}

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0 : double(num) / double(den);
}

} // namespace

ServeOutcome
runServe(const ServeConfig &cfg, const Args &args, RunResult &result)
{
    ServeOutcome out;
    const Circuits c = makeCircuits(cfg, args.seed, args.injectFault);
    const auto epoch = Clock::now();

    std::unique_ptr<Rig> rig;
    for (uint32_t rep = 0; rep < cfg.setupReps; ++rep) {
        if (rig) {
            out.serverFailures += serverFailures(tearDown(*rig));
            for (auto &cl : rig->clients) {
                result.attempted += cl->attempted;
                result.failed += cl->failed;
            }
            rig.reset();
            // Hand the freed pool back to the OS so peak_rss_mb measures
            // one set-up, not whatever the allocator kept of the last.
            malloc_trim(0);
        }
        const auto start = Clock::now();
        rig = setUp(cfg, c, epoch);
        out.setupS.push_back(secondsSince(start));
    }
    out.layer.prewarmS = rig->prewarmS;

    // The timed window.
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));
    // The window also ends for every connection once one has used its
    // cycle budget, so the load never drops to fewer connections.
    std::atomic<bool> budget_spent{false};
    std::vector<std::thread> threads;
    for (auto &cl : rig->clients)
        threads.emplace_back([&, cl = cl.get()] {
            for (uint32_t cycle = 0; cycle < cfg.cycleBudget; ++cycle)
                for (int k = 0; k < 3; ++k) {
                    if (!cl->alive || budget_spent ||
                        Clock::now() >= deadline)
                        return;
                    const bool traced = cfg.traced && cycle % 2 == 1;
                    request(*cl, c, k, false,
                            traced ? cl->tracer.get() : nullptr, traced);
                }
            budget_spent = true;
        });
    for (std::thread &t : threads)
        t.join();
    out.elapsedS = secondsSince(start);

    const GcServer::Totals base = rig->base;
    const GcServer::Totals end = tearDown(*rig);
    std::vector<double> untraced;
    for (auto &cl : rig->clients) {
        result.attempted += cl->attempted;
        result.failed += cl->failed;
        merge(out.pooled, cl->log[kPooled]);
        merge(out.chained, cl->log[kChained]);
        merge(out.upload, cl->log[kUpload]);
        merge(out.tracedPooled, cl->tracedLog[kPooled]);
        merge(out.tracedChained, cl->tracedLog[kChained]);
        merge(out.tracedUpload, cl->tracedLog[kUpload]);
        untraced.insert(untraced.end(), cl->untracedMs.begin(),
                        cl->untracedMs.end());
        if (cl->tracer)
            for (const char *root : kRoot) {
                const std::vector<OpSplit> s = splitOps(*cl->tracer, root);
                out.tracedSplits.insert(out.tracedSplits.end(), s.begin(),
                                        s.end());
            }
    }
    out.untracedP50Ms = median(untraced);

    const uint64_t sessions = end.sessionsServed - base.sessionsServed;
    const uint64_t hits = end.poolHits - base.poolHits;
    const uint64_t misses = end.poolMisses - base.poolMisses;
    const uint64_t linked = end.componentsLinked - base.componentsLinked;
    const uint64_t comp_hits =
        end.componentPoolHits - base.componentPoolHits;
    out.serverFailures += serverFailures(end);
    ServeLayer &l = out.layer;
    l.poolHitRatio = ratio(hits, hits + misses);
    l.componentPoolHitRatio = ratio(comp_hits, linked);
    l.otReuseRatio = ratio(end.otSetupsReused - base.otSetupsReused,
                           sessions);
    std::vector<double> acks = out.pooled.ackMs;
    acks.insert(acks.end(), out.chained.ackMs.begin(),
                out.chained.ackMs.end());
    l.ackMs = median(acks);
    l.admissionMs = median(out.upload.ackMs);
    l.serverSessionMs =
        sessions == 0
            ? 0
            : 1000.0 * (end.sessionSeconds - base.sessionSeconds) /
                  double(sessions);
    l.linkBytes = ratio(end.linkBytes - base.linkBytes,
                        end.chainSessions - base.chainSessions);
    for (const OpLog *log : {&out.pooled, &out.chained, &out.upload}) {
        if (log->wire.empty())
            continue;
        l.cycleWire.bytesDown += log->wire.front().bytesDown;
        l.cycleWire.bytesUp += log->wire.front().bytesUp;
        l.cycleWire.frames += log->wire.front().frames;
    }
    for (const OpLog *log :
         {&out.tracedPooled, &out.tracedChained, &out.tracedUpload}) {
        l.cycleSendMs += median(log->sendMs);
        l.cycleRecvWaitMs += median(log->recvWaitMs);
    }

    // Server-side failures (failed sessions, refused uploads, pool
    // misses) count against the run like a wrong output.
    result.failed += out.serverFailures;
    // Exact counts: every request of a class moves the same bytes.
    for (const OpLog *log : {&out.pooled, &out.chained, &out.upload})
        result.check(wireStable(log->wire));
    return out;
}

namespace {

void
printClass(const char *name, const OpLog &log, const OpLog &traced)
{
    printLatency(name, log.latencyMs);
    if (!log.wire.empty())
        info("    wire/request: down=%llu B up=%llu B frames=%llu "
             "(stable=%s)  ack p50=%.3f ms",
             (unsigned long long)log.wire.front().bytesDown,
             (unsigned long long)log.wire.front().bytesUp,
             (unsigned long long)log.wire.front().frames,
             wireStable(log.wire) ? "yes" : "NO", median(log.ackMs));
    if (!traced.latencyMs.empty()) {
        std::vector<double> self;
        for (size_t i = 0; i < traced.latencyMs.size(); ++i)
            self.push_back(traced.latencyMs[i] - traced.recvWaitMs[i]);
        info("    traced n=%zu: span p50=%.3f ms = self %.3f + "
             "net.recv_wait %.3f (medians); net.send p50=%.3f ms",
             traced.latencyMs.size(), median(traced.latencyMs),
             median(self), median(traced.recvWaitMs),
             median(traced.sendMs));
    }
}

/**
 * How much of each traced request span its ack/admission and protocol
 * child spans cover; the rest is the benchmark's own bookkeeping.
 * Self time plus net.recv_wait equals the span by construction.
 */
void
printCoverage(const std::vector<OpSplit> &splits)
{
    std::vector<double> share;
    for (const OpSplit &op : splits) {
        double children = 0;
        for (const auto &child : op.children)
            children += child.second;
        share.push_back(op.spanMs > 0 ? 100.0 * children / op.spanMs : 0);
    }
    if (share.empty())
        return;
    info("  span accounting: ack/admission + protocol cover %.2f%% of a "
         "request span (median), %.2f%% at least",
         median(share), *std::min_element(share.begin(), share.end()));
}

/**
 * Cycles one connection may run: about 1.4x the cycle rate measured on
 * a 4-vCPU host (6-7.6 cycles/s), so the pool covers the window there.
 * A faster build ends the window on the budget instead, with no pool
 * miss.
 */
uint32_t
cycleBudget(double seconds)
{
    return uint32_t(seconds * 9) + 2;
}

} // namespace

RunResult
runServeMix(const Args &args)
{
    RunResult result;
    ServeConfig cfg;
    cfg.connections = 2;
    cfg.cycleBudget = cycleBudget(args.seconds);
    cfg.setupReps = args.trace ? 1 : 3;
    cfg.seconds = args.seconds;
    cfg.traced = args.trace;
    const ServeOutcome out = runServe(cfg, args, result);

    info("serve-mix: %u connections, %.2f s window, %zu requests",
         cfg.connections, out.elapsedS,
         out.pooled.latencyMs.size() + out.chained.latencyMs.size() +
             out.upload.latencyMs.size());
    printClass("pooled (Hamm)", out.pooled, out.tracedPooled);
    printClass("chained (ProdCmp:32)", out.chained, out.tracedChained);
    printClass("upload (DotProd)", out.upload, out.tracedUpload);
    info("  pool hit %.3f, component pool hit %.3f, ot reuse %.3f, "
         "server failures %llu",
         out.layer.poolHitRatio, out.layer.componentPoolHitRatio,
         out.layer.otReuseRatio, (unsigned long long)out.serverFailures);

    if (!args.trace) {
        std::vector<double> all = out.pooled.latencyMs;
        for (const OpLog *log : {&out.chained, &out.upload})
            all.insert(all.end(), log->latencyMs.begin(),
                       log->latencyMs.end());
        const uint64_t gates =
            out.pooled.gates + out.chained.gates + out.upload.gates;
        printLatency("all requests", all);
        addEndToEnd(all, gates, out.elapsedS, result);
        result.add("setup_s", median(out.setupS), "s");
        printSetup(out.setupS);
        return result;
    }

    addServeLayer(out.layer, result);
    addNetLayer(out.layer.cycleWire, out.layer.cycleSendMs,
                out.layer.cycleRecvWaitMs, result);
    addTraceLayer(out.tracedSplits, out.untracedP50Ms, result);
    printCoverage(out.tracedSplits);

    const Circuits c = makeCircuits(cfg, args.seed, false);
    LayerInputs in;
    const Netlist chain_mono = c.chain.plan.monolithic();
    in.circuits = {{cfg.pooledSpec, &c.pooled.netlist},
                   {cfg.chainSpec, &chain_mono},
                   {cfg.uploadSpec + " (upload)", &c.upload}};
    in.evaluatorBits = c.pooled.netlist.numEvaluatorInputs +
                       c.chain.plan.evaluatorInputs +
                       c.upload.numEvaluatorInputs;
    probeLayers(in, args, result);
    return result;
}

ServeLayer
probeServe(const std::string &spec, const Args &args, RunResult &result)
{
    ServeConfig cfg;
    cfg.pooledSpec = spec;
    cfg.uploadSpec = spec;
    cfg.connections = 1;
    cfg.cycleBudget = 2;
    cfg.seconds = 1e6; // ends on the budget
    cfg.traced = true;
    const ServeOutcome out = runServe(cfg, args, result);
    info("serve probe (%s, 1 connection, %u cycles):", spec.c_str(),
         cfg.cycleBudget);
    printClass("pooled", out.pooled, out.tracedPooled);
    printClass("chained", out.chained, out.tracedChained);
    printClass("upload", out.upload, out.tracedUpload);
    return out.layer;
}

} // namespace hb
