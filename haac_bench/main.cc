/**
 * @file
 * haac_bench: one command for the repository's end-to-end and
 * per-layer performance.
 *
 *   haac_bench --workload serve-mix|session-cold|model-sweep
 *              --seed N --seconds S --trace 0|1 [--inject-fault]
 *
 * Human-readable lines come first; the last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
 * the metrics are the end-to-end set, with --trace 1 the per-layer set
 * (METRICS.md lists both). The exit code is 0 when every checked
 * operation was correct, 1 when one was not, 2 on a usage error.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

using namespace hb;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "haac_bench: %s\n"
                 "usage: haac_bench --workload "
                 "serve-mix|session-cold|model-sweep --seed N "
                 "--seconds S --trace 0|1 [--inject-fault]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--inject-fault") {
            a.injectFault = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !v.empty();
            if (!have_seed)
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            have_seconds = end && *end == '\0' && a.seconds > 0 &&
                           a.seconds <= 600;
            if (!have_seconds)
                usage("--seconds takes a number in (0, 600]");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
            have_trace = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload != "serve-mix" && a.workload != "session-cold" &&
        a.workload != "model-sweep")
        usage("--workload must be serve-mix, session-cold or model-sweep");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    return a;
}

bool
cpuHasAes()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("aes");
#else
    return false;
#endif
}

void
printHost()
{
    info("host: nproc=%u, AES-NI compiled=%s, CPU AES=%s, compiler=%s, "
         "build=%s",
         std::thread::hardware_concurrency(),
         HAAC_BENCH_AESNI ? "yes" : "no", cpuHasAes() ? "yes" : "no",
         HAAC_BENCH_COMPILER, HAAC_BENCH_BUILD_TYPE);
    if (std::strcmp(HAAC_BENCH_BUILD_TYPE, "Release") != 0)
        info("WARNING: not a Release build; timings are not comparable");
    if (!HAAC_BENCH_AESNI || !cpuHasAes())
        info("WARNING: software AES path in use");
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
printResult(const RunResult &r)
{
    const bool correct = r.failed == 0 && r.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed);
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    info("haac_bench: workload=%s seed=%llu seconds=%g trace=%d%s",
         args.workload.c_str(), (unsigned long long)args.seed,
         args.seconds, int(args.trace),
         args.injectFault ? " (fault injected)" : "");
    printHost();

    RunResult result;
    try {
        if (args.workload == "serve-mix")
            result = runServeMix(args);
        else if (args.workload == "session-cold")
            result = runSessionCold(args);
        else
            result = runModelSweep(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "haac_bench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    if (!args.trace)
        result.add("peak_rss_mb", peakRssMb(), "MB");

    info("error_rate = %llu/%llu = %.6f",
         (unsigned long long)result.failed,
         (unsigned long long)result.attempted,
         result.attempted ? double(result.failed) / double(result.attempted)
                          : 0.0);
    printResult(result);
    return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
