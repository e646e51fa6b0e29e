/**
 * @file
 * haac_bench: statistics, tracing, the timed transport decorator and
 * the metric helpers every workload shares.
 */
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <random>

#include "bench.h"

namespace hb {

std::vector<bool>
seededBits(uint64_t seed, uint64_t stream, size_t n)
{
    std::seed_seq seq{uint32_t(seed), uint32_t(seed >> 32),
                      uint32_t(stream), uint32_t(stream >> 32)};
    std::mt19937_64 rng(seq);
    std::vector<bool> bits(n);
    for (size_t i = 0; i < n; i += 64) {
        const uint64_t word = rng();
        for (size_t j = 0; j < 64 && i + j < n; ++j)
            bits[i + j] = (word >> j) & 1;
    }
    return bits;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

void
info(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::putchar('\n');
}

int32_t
Tracer::begin(const char *name, int32_t parent, uint64_t request)
{
    Span s;
    s.name = name;
    s.startMs = msBetween(epoch_, Clock::now());
    s.parent = parent;
    s.request = request;
    spans_.push_back(s);
    return int32_t(spans_.size() - 1);
}

void
Tracer::end(int32_t id)
{
    spans_[size_t(id)].endMs = msBetween(epoch_, Clock::now());
}

std::vector<OpSplit>
splitOps(const Tracer &tracer, const char *root)
{
    const std::string root_name(root);
    std::vector<OpSplit> out;
    std::map<int32_t, size_t> slot; // root span index -> out index
    const std::vector<Span> &spans = tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double ms = s.endMs - s.startMs;
        if (s.parent < 0) {
            if (root_name == s.name) {
                slot[int32_t(i)] = out.size();
                out.push_back({ms, 0, {}});
            }
            continue;
        }
        const auto it = slot.find(s.parent);
        if (it == slot.end())
            continue;
        OpSplit &op = out[it->second];
        if (std::string(s.name) == "net.readAll")
            op.readWaitMs += ms;
        else
            op.children.emplace_back(s.name, ms);
    }
    return out;
}

void
TimedTransport::writeAll(const uint8_t *data, size_t n)
{
    const auto start = Clock::now();
    inner_.writeAll(data, n);
    sendMs_ += msBetween(start, Clock::now());
}

void
TimedTransport::readAll(uint8_t *data, size_t n)
{
    SpanScope span(tracer_, "net.readAll", opSpan_, request_);
    const auto start = Clock::now();
    inner_.readAll(data, n);
    recvMs_ += msBetween(start, Clock::now());
}

std::string
TimedTransport::describe() const
{
    return "timed(" + inner_.describe() + ")";
}

WireCount
wireSnapshot(const haac::Transport &t)
{
    return {t.rawBytesReceived(), t.rawBytesSent(),
            t.framesSent() + t.framesReceived()};
}

WireCount
wireDelta(const WireCount &before, const WireCount &after)
{
    return {after.bytesDown - before.bytesDown,
            after.bytesUp - before.bytesUp, after.frames - before.frames};
}

bool
wireStable(const std::vector<WireCount> &wire)
{
    for (const WireCount &w : wire)
        if (w != wire.front())
            return false;
    return true;
}

void
addEndToEnd(const std::vector<double> &latency_ms, uint64_t gates,
            double elapsed_s, RunResult &result)
{
    const double s = elapsed_s > 0 ? elapsed_s : 1e-9;
    result.add("ops_per_s", double(latency_ms.size()) / s, "1/s");
    result.add("p50_ms", quantile(latency_ms, 0.5), "ms");
    result.add("gates_per_s", double(gates) / s, "1/s");
}

void
printLatency(const char *name, const std::vector<double> &ms)
{
    info("  %-22s n=%-5zu p50=%9.3f ms  p90=%9.3f ms", name, ms.size(),
         quantile(ms, 0.5), quantile(ms, 0.9));
}

void
printSetup(const std::vector<double> &seconds)
{
    info("  setup: n=%zu median=%.4f s min=%.4f s max=%.4f s",
         seconds.size(), median(seconds),
         *std::min_element(seconds.begin(), seconds.end()),
         *std::max_element(seconds.begin(), seconds.end()));
}

void
addServeLayer(const ServeLayer &l, RunResult &result)
{
    result.add("serve.pool_hit_ratio", l.poolHitRatio, "ratio");
    result.add("serve.component_pool_hit_ratio", l.componentPoolHitRatio,
               "ratio");
    result.add("serve.ot_reuse_ratio", l.otReuseRatio, "ratio");
    result.add("serve.ack_ms", l.ackMs, "ms");
    result.add("serve.admission_ms", l.admissionMs, "ms");
    result.add("serve.server_session_ms", l.serverSessionMs, "ms");
    result.add("serve.prewarm_s", l.prewarmS, "s");
    result.add("chain.link_bytes", l.linkBytes, "B");
}

void
addNetLayer(const WireCount &wire, double send_ms, double recv_wait_ms,
            RunResult &result)
{
    result.add("net.bytes_down", double(wire.bytesDown), "B");
    result.add("net.bytes_up", double(wire.bytesUp), "B");
    result.add("net.frames", double(wire.frames), "count");
    result.add("net.send_ms", send_ms, "ms");
    result.add("net.recv_wait_ms", recv_wait_ms, "ms");
}

void
addTraceLayer(const std::vector<OpSplit> &splits, double untraced_p50_ms,
              RunResult &result)
{
    std::vector<double> span, self;
    for (const OpSplit &op : splits) {
        span.push_back(op.spanMs);
        self.push_back(op.spanMs - op.readWaitMs);
    }
    const double traced = median(span);
    result.add("trace.op_ms", traced, "ms");
    result.add("trace.self_ms", median(self), "ms");
    result.add("trace.overhead_pct",
               untraced_p50_ms > 0
                   ? 100.0 * (traced - untraced_p50_ms) / untraced_p50_ms
                   : 0,
               "%");
}

} // namespace hb
