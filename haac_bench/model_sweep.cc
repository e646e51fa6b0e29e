/**
 * @file
 * model-sweep: what reproducing the paper's figures and tables costs.
 *
 * Every default-scale VIP workload is compiled single-threaded
 * (assemble -> reorder -> ESW -> streams, no compile cache) and
 * simulated in Combined mode on the paper's default accelerator, with
 * the functional outputs computed and checked. Only core/compiler and
 * core/sim run here: a crypto, net or serve change should not move it.
 */
#include <map>
#include <optional>

#include <sched.h>

#include "bench.h"
#include "core/compiler/passes.h"
#include "core/compiler/streams.h"
#include "core/isa/program.h"
#include "core/sim/engine.h"
#include "workloads/vip.h"

using namespace haac;

namespace hb {

namespace {

struct Suite
{
    std::vector<Workload> workloads;
    std::vector<std::vector<bool>> garblerBits, evaluatorBits, expected;
};

Suite
setUp(const Args &args)
{
    Suite s{vipSuite(false), {}, {}, {}};
    for (size_t i = 0; i < s.workloads.size(); ++i) {
        const Netlist &nl = s.workloads[i].netlist;
        s.garblerBits.push_back(
            seededBits(args.seed, 600 + i, nl.numGarblerInputs));
        s.evaluatorBits.push_back(
            seededBits(args.seed, 700 + i, nl.numEvaluatorInputs));
        s.expected.push_back(
            nl.evaluate(s.garblerBits.back(), s.evaluatorBits.back()));
    }
    if (args.injectFault)
        s.expected[0][0] = !s.expected[0][0];
    return s;
}

/**
 * Moves the calling thread across the CPUs this process may run on. On
 * a shared host each CPU's speed drifts on its own, and a thread the
 * scheduler leaves in place reports one CPU's speed for a whole run.
 * Pinning each workload of a pass to the next CPU makes every pass cover
 * all of them. The destructor gives the thread back all of these CPUs.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus_.push_back(c);
    }
    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            pinTo(cpus_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread to allowed CPU @p i (mod their count);
     *  does nothing with fewer than two CPUs. */
    void
    moveTo(size_t i) const
    {
        if (cpus_.size() > 1)
            pinTo({cpus_[i % cpus_.size()]});
    }
    size_t size() const { return cpus_.size(); }

  private:
    static void
    pinTo(const std::vector<int> &cpus)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int c : cpus)
            CPU_SET(c, &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

    std::vector<int> cpus_;
};

/** Exact per-workload counts that must never drift. */
struct Counts
{
    uint64_t cycles = 0;
    uint64_t oorReads = 0;
    bool operator!=(const Counts &o) const
    {
        return cycles != o.cycles || oorReads != o.oorReads;
    }
};

} // namespace

RunResult
runModelSweep(const Args &args)
{
    RunResult result;
    std::vector<double> setup_s;
    Suite suite;
    for (int rep = 0; rep < (args.trace ? 1 : 15); ++rep) {
        const auto start = Clock::now();
        suite = setUp(args);
        setup_s.push_back(secondsSince(start));
    }

    const HaacConfig cfg{};
    CompileOptions copts;
    copts.swwWires = cfg.swwWires();

    const auto epoch = Clock::now();
    Tracer tracer(epoch);
    uint64_t gates = 0;
    std::vector<double> untraced_ms, pass_ms;
    std::map<size_t, Counts> counts;
    std::map<size_t, std::vector<double>> per_workload_ms;
    bool stable = true;
    uint64_t passes = 0;
    std::optional<CpuRotation> rotation(std::in_place);
    const size_t cpus = rotation->size();
    // One operation is one whole pass, so every sample weighs the
    // workloads alike; each workload of a pass runs on the next CPU.
    // Traced runs trace every other pass.
    while (secondsSince(epoch) < args.seconds) {
        const uint64_t pass_index = passes++;
        Tracer *tr = args.trace && pass_index % 2 == 1 ? &tracer : nullptr;
        const auto pass_start = Clock::now();
        SpanScope pass(tr, "sweep.pass", -1, pass_ms.size());
        bool pass_ok = true;
        for (size_t w = 0; w < suite.workloads.size(); ++w) {
            rotation->moveTo(pass_index + w);
            const Netlist &nl = suite.workloads[w].netlist;
            const auto start = Clock::now();
            CompileStats stats;
            HaacProgram prog;
            StreamSet streams;
            {
                SpanScope s(tr, "compile", pass.id(), w);
                prog = compileProgram(assemble(nl), copts, &stats);
                streams = buildStreams(prog, cfg);
            }
            SimStats sim;
            {
                SpanScope s(tr, "simulate", pass.id(), w);
                sim = runSimulation(prog, cfg, streams, SimMode::Combined);
            }
            std::vector<bool> outputs;
            {
                SpanScope s(tr, "outputs", pass.id(), w);
                outputs = executePlain(prog, suite.garblerBits[w],
                                       suite.evaluatorBits[w]);
            }
            const bool ok = outputs == suite.expected[w];
            result.check(ok);
            pass_ok = pass_ok && ok;
            const Counts c{sim.cycles, stats.oorReads};
            const auto it = counts.emplace(w, c).first;
            stable = stable && !(it->second != c);
            per_workload_ms[w].push_back(msBetween(start, Clock::now()));
            gates += nl.numGates();
        }
        const double ms = msBetween(pass_start, Clock::now());
        if (pass_ok)
            pass_ms.push_back(ms);
        if (pass_ok && !tr)
            untraced_ms.push_back(ms);
    }
    const double elapsed = secondsSince(epoch);
    rotation.reset();
    result.check(stable);

    info("model-sweep: %zu VIP workloads, %zu passes, %.2f s window, "
         "rotated over %zu CPUs",
         suite.workloads.size(), pass_ms.size(), elapsed, cpus);
    printLatency("pass (model_sweep)", pass_ms);
    for (const auto &[w, ms] : per_workload_ms)
        info("    %-9s n=%-3zu p50=%8.3f ms  cycles=%llu oor_reads=%llu",
             suite.workloads[w].name.c_str(), ms.size(), median(ms),
             (unsigned long long)counts[w].cycles,
             (unsigned long long)counts[w].oorReads);
    info("  exact counts stable across passes: %s", stable ? "yes" : "NO");

    if (!args.trace) {
        addEndToEnd(pass_ms, gates, elapsed, result);
        result.add("setup_s", median(setup_s), "s");
        printSetup(setup_s);
        return result;
    }

    // No network on this workload: net.* come from the serve probe.
    const ServeLayer serve = probeServe("DotProd", args, result);
    addNetLayer(serve.cycleWire, serve.cycleSendMs, serve.cycleRecvWaitMs,
                result);
    addServeLayer(serve, result);
    addTraceLayer(splitOps(tracer, "sweep.pass"), median(untraced_ms),
                  result);

    LayerInputs layers;
    for (const Workload &w : suite.workloads) {
        layers.circuits.emplace_back(w.name, &w.netlist);
        layers.evaluatorBits += w.netlist.numEvaluatorInputs;
    }
    probeLayers(layers, args, result);
    return result;
}

} // namespace hb
