/**
 * @file
 * Per-layer probes: each layer's public functions timed on the
 * workload's own circuits, one layer at a time, in the traced run.
 *
 * A probe is repeated and reports its median, so one slow batch on a
 * shared host does not set the number. Probes also check what they
 * compute (evaluated outputs, OT labels, stream bytes) and count a
 * mismatch as a failed operation.
 */
#include <algorithm>
#include <thread>

#include "bench.h"
#include "chain/component.h"
#include "chain/link.h"
#include "chain/workloads.h"
#include "circuit/analyze.h"
#include "circuit/bristol.h"
#include "core/compiler/passes.h"
#include "core/compiler/streams.h"
#include "core/isa/program.h"
#include "core/sim/engine.h"
#include "crypto/aes128.h"
#include "crypto/hash.h"
#include "gc/channel.h"
#include "gc/instance.h"
#include "gc/ot_ext.h"
#include "gc/streaming.h"
#include "net/loopback.h"

using namespace haac;

namespace hb {

namespace {

/** Median over @p reps of fn()'s wall time in nanoseconds. */
template <typename Fn>
double
medianNs(int reps, Fn &&fn)
{
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        fn();
        ns.push_back(msBetween(start, Clock::now()) * 1e6);
    }
    return median(ns);
}

/** Keeps a value observable so the timed loop is not folded away. */
volatile uint64_t g_sink = 0;

void
probeCrypto(RunResult &result)
{
    constexpr int kBlocks = 100000;
    constexpr int kKeys = 10000;
    const Aes128 aes(Label(0x0123456789abcdefull, 0xfedcba9876543210ull));
    const FixedKeyHasher fixed;
    Label x(1, 2);
    const double block = medianNs(7, [&] {
                             for (int i = 0; i < kBlocks; ++i)
                                 x = aes.encryptBlock(x);
                         }) /
                         kBlocks;
    const double keyexp = medianNs(7, [&] {
                              for (int i = 0; i < kKeys; ++i) {
                                  const Aes128 k(x);
                                  x.lo ^= k.roundKeys()[160];
                              }
                          }) /
                          kKeys;
    uint64_t tweak = 0;
    const double rekeyed = medianNs(7, [&] {
                               for (int i = 0; i < kKeys; ++i)
                                   x = hashRekeyed(x, tweak++);
                           }) /
                           kKeys;
    const double fixed_ns = medianNs(7, [&] {
                                for (int i = 0; i < kBlocks; ++i)
                                    x = fixed(x, tweak++);
                            }) /
                            kBlocks;
    g_sink = x.lo;
    const double overhead = 100.0 * (rekeyed - fixed_ns) / fixed_ns;
    result.add("crypto.aes_block_ns", block, "ns");
    result.add("crypto.aes_keyexp_ns", keyexp, "ns");
    result.add("crypto.rekeyed_hash_ns", rekeyed, "ns");
    result.add("crypto.fixedkey_hash_ns", fixed_ns, "ns");
    result.add("crypto.rekey_overhead_pct", overhead, "%");
    info("crypto: aes block %.1f ns, key expansion %.1f ns, re-keyed hash "
         "%.1f ns, fixed-key hash %.1f ns",
         block, keyexp, rekeyed, fixed_ns);
    info("paper reference (ungated): re-keying costs %+.1f%% over "
         "fixed-key here vs +27.5%% in the paper's CPU baseline",
         overhead);
}

/** Primary-input active labels for plaintext @p g / @p e bits. */
std::vector<Label>
inputLabels(const Netlist &nl, const GarbledInstance &inst,
            const std::vector<bool> &g, const std::vector<bool> &e)
{
    std::vector<Label> labels(nl.numInputs());
    for (WireId w = 0; w < nl.numInputs(); ++w) {
        bool v = true; // the constant-one wire
        if (w < nl.numGarblerInputs)
            v = g[w];
        else if (w < nl.numGarblerInputs + nl.numEvaluatorInputs)
            v = e[w - nl.numGarblerInputs];
        labels[w] = inst.activeLabel(w, v);
    }
    return labels;
}

void
probeGc(const LayerInputs &in, const Args &args, RunResult &result)
{
    double garble_ns = 0, eval_ns = 0;
    uint64_t ands = 0, tables = 0;
    for (const auto &[name, nl] : in.circuits) {
        uint64_t emitted = 0;
        garble_ns += medianNs(3, [&] {
            emitted = garbleStreaming(*nl, args.seed,
                                      [](const GarbledTable &) {})
                          .tablesEmitted;
        });
        const GarbledInstance inst = captureGarbling(*nl, args.seed);
        const std::vector<bool> g =
            seededBits(args.seed, 800, nl->numGarblerInputs);
        const std::vector<bool> e =
            seededBits(args.seed, 801, nl->numEvaluatorInputs);
        const std::vector<Label> labels = inputLabels(*nl, inst, g, e);
        std::vector<Label> out;
        eval_ns += medianNs(3, [&] {
            size_t next = 0;
            out = evaluateStreaming(*nl, labels,
                                    [&] { return inst.tables[next++]; });
        });
        std::vector<bool> decoded(out.size());
        for (size_t i = 0; i < out.size(); ++i)
            decoded[i] = out[i].lsb() != inst.decodeBit(i);
        result.check(decoded == nl->evaluate(g, e));
        ands += nl->numAndGates();
        tables += emitted;
    }
    result.add("gc.garble_ns_per_and", garble_ns / double(ands), "ns");
    result.add("gc.eval_ns_per_and", eval_ns / double(ands), "ns");
    result.add("gc.and_tables", double(tables), "count");
    info("gc: garble %.1f ns/AND, evaluate %.1f ns/AND over %llu AND "
         "tables",
         garble_ns / double(ands), eval_ns / double(ands),
         (unsigned long long)tables);
}

void
probeOt(const LayerInputs &in, const Args &args, RunResult &result)
{
    std::vector<double> base_ms;
    double ext_ns = 0;
    for (int rep = 0; rep < 3; ++rep) {
        DuplexChannel chan;
        OtExtSender sender(chan.toEvaluator, chan.toGarbler,
                           args.seed + 10 * rep);
        OtExtReceiver receiver(chan.toGarbler, chan.toEvaluator,
                               args.seed + 10 * rep + 1);
        const auto start = Clock::now();
        receiver.start();
        sender.setup();
        receiver.setup();
        base_ms.push_back(msBetween(start, Clock::now()));
        if (rep > 0)
            continue;

        const size_t n = std::max<size_t>(in.evaluatorBits, 1);
        const std::vector<bool> choices = seededBits(args.seed, 900, n);
        std::vector<Label> m0(n), m1(n), got;
        for (size_t i = 0; i < n; ++i) {
            m0[i] = Label(2 * i, args.seed);
            m1[i] = Label(2 * i + 1, args.seed);
        }
        // Small batches are dominated by per-batch work; repeat them
        // enough to time.
        const int reps = int(std::clamp<size_t>(200000 / n, 5, 200));
        ext_ns = medianNs(reps, [&] {
                     receiver.sendChoices(choices);
                     sender.send(m0, m1);
                     got = receiver.receiveLabels();
                 }) /
                 double(n);
        bool ok = got.size() == n;
        for (size_t i = 0; ok && i < n; ++i)
            ok = got[i] == (choices[i] ? m1[i] : m0[i]);
        result.check(ok);
    }
    result.add("gc.base_ot_ms", median(base_ms), "ms");
    result.add("gc.ot_ext_ns_per_bit", ext_ns, "ns");
    info("ot: base OT %.3f ms, extension %.1f ns/bit at %zu bits",
         median(base_ms), ext_ns, in.evaluatorBits);
}

/** Stream the workload's table bytes through a loopback pair. */
void
probeLoopback(uint64_t and_tables, RunResult &result)
{
    constexpr size_t kFrame = 32 * 1024;
    const size_t bytes =
        std::max<size_t>(size_t(and_tables) * 32, 1u << 20);
    const std::vector<uint8_t> frame(kFrame, 0x5a);
    std::vector<double> mbps;
    bool ok = true;
    for (int rep = 0; rep < 3; ++rep) {
        auto [a, b] = LoopbackTransport::createPair();
        const auto start = Clock::now();
        std::thread writer([&, t = a.get()] {
            for (size_t sent = 0; sent < bytes; sent += kFrame)
                t->sendFrame(frame);
        });
        size_t got = 0;
        while (got < bytes)
            got += b->recvFrame().size();
        writer.join();
        mbps.push_back(double(got) / 1e6 /
                       (msBetween(start, Clock::now()) / 1e3));
        ok = ok && got >= bytes;
    }
    result.check(ok);
    result.add("net.loopback_mb_per_s", median(mbps), "MB/s");
    info("net: loopback %.1f MB/s over %zu bytes", median(mbps), bytes);
}

void
probeCircuit(const LayerInputs &in, RunResult &result)
{
    double parse_ns = 0, analyze_ns = 0;
    for (const auto &[name, nl] : in.circuits) {
        const std::string text = writeBristolString(*nl);
        Netlist parsed;
        parse_ns += medianNs(3, [&] { parsed = readBristolString(text); });
        CircuitLintReport lints;
        analyze_ns += medianNs(3, [&] { lints = analyzeNetlist(parsed); });
        result.check(lints.clean() &&
                     parsed.numAndGates() == nl->numAndGates());
    }
    result.add("circuit.bristol_parse_ms", parse_ns / 1e6, "ms");
    result.add("circuit.analyze_ms", analyze_ns / 1e6, "ms");
    info("circuit: Bristol parse %.3f ms, analyze %.3f ms",
         parse_ns / 1e6, analyze_ns / 1e6);
}

/** chain.* is always ChainProdCmp:32, the serve-mix chained class. */
void
probeChain(const Args &args, RunResult &result)
{
    const chain::ChainWorkload wl =
        chain::resolveChainWorkload("ChainProdCmp:32");
    std::vector<chain::GarbledComponent> comps;
    for (size_t n = 0; n < wl.plan.nodes.size(); ++n)
        comps.push_back(
            chain::captureComponent(wl.plan.nodes[n], args.seed + n));
    std::vector<const chain::GarbledComponent *> ptrs;
    for (const chain::GarbledComponent &c : comps)
        ptrs.push_back(&c);
    size_t links = 0;
    const double ns = medianNs(51, [&] {
        links = chain::buildLinkTables(wl.plan, ptrs).size();
    });
    result.check(links == wl.plan.numLinks());
    result.add("chain.link_tables_us", ns / 1e3, "us");
    info("chain: %zu link tables in %.2f us", links, ns / 1e3);
}

void
probeCompileSim(const LayerInputs &in, RunResult &result)
{
    const HaacConfig cfg{};
    CompileOptions copts;
    copts.swwWires = cfg.swwWires();
    double compile_ns = 0, sim_ns = 0;
    uint64_t oor = 0, cycles = 0, instrs = 0;
    for (const auto &[name, nl] : in.circuits) {
        CompileStats stats;
        HaacProgram prog;
        StreamSet streams;
        const double c_ns = medianNs(3, [&] {
            prog = compileProgram(assemble(*nl), copts, &stats);
            streams = buildStreams(prog, cfg);
        });
        SimStats sim;
        const double s_ns = medianNs(3, [&] {
            sim = runSimulation(prog, cfg, streams, SimMode::Combined);
        });
        info("  %-16s compile %8.3f ms  simulate %8.3f ms  cycles=%llu "
             "oor_reads=%llu",
             name.c_str(), c_ns / 1e6, s_ns / 1e6,
             (unsigned long long)sim.cycles,
             (unsigned long long)stats.oorReads);
        compile_ns += c_ns;
        sim_ns += s_ns;
        oor += stats.oorReads;
        cycles += sim.cycles;
        instrs += sim.instructions;
    }
    result.add("compiler.compile_ms", compile_ns / 1e6, "ms");
    result.add("compiler.oor_reads", double(oor), "count");
    result.add("sim.simulate_ms", sim_ns / 1e6, "ms");
    result.add("sim.host_ns_per_instr", sim_ns / double(instrs), "ns");
    result.add("sim.cycles", double(cycles), "count");
    info("compiler+sim total: compile %.3f ms, simulate %.3f ms, %llu "
         "cycles, %llu OoR reads",
         compile_ns / 1e6, sim_ns / 1e6, (unsigned long long)cycles,
         (unsigned long long)oor);
}

} // namespace

void
probeLayers(const LayerInputs &in, const Args &args, RunResult &result)
{
    probeCrypto(result);
    probeGc(in, args, result);
    probeOt(in, args, result);
    uint64_t ands = 0;
    for (const auto &c : in.circuits)
        ands += c.second->numAndGates();
    probeLoopback(ands, result);
    probeCircuit(in, result);
    probeChain(args, result);
    probeCompileSim(in, result);
}

} // namespace hb
