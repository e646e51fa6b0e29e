/**
 * @file
 * LoopbackTransport: an in-memory, thread-safe Transport pair.
 *
 * Tests and CI exercise the full remote protocol — framing, handshake,
 * segmented table streaming, the multi-session server, shard dispatch —
 * without binding a single port: createPair() returns two connected
 * endpoints backed by two mutex/condvar byte queues, one per direction.
 * Blocking semantics match TCP (reads wait for data; reading a closed,
 * drained pipe raises NetError like a peer hangup), so protocol code
 * cannot tell the difference.
 *
 * Each direction is bounded by a byte window (like a TCP socket
 * buffer): a writer outrunning a stalled reader blocks once the window
 * fills instead of growing the pipe without limit, so backpressure is
 * real on loopback too. The default window is generous; tests shrink
 * it to force the flow-control path.
 */
#ifndef HAAC_NET_LOOPBACK_H
#define HAAC_NET_LOOPBACK_H

#include <cstddef>
#include <memory>
#include <utility>

#include "net/transport.h"

namespace haac {

class LoopbackTransport : public Transport
{
  public:
    /**
     * Default per-direction byte window: 256 KB, eight segments of the
     * default 1024 tables, about a TCP socket buffer. A garbler that
     * outruns its evaluator blocks here instead of queueing the rest of
     * its table stream in memory.
     */
    static constexpr size_t kDefaultWindowBytes = 256u * 1024;

    /**
     * Two connected endpoints; either may live on any thread.
     *
     * @param window_bytes per-direction pipe capacity (>= 1); a write
     *        into a full pipe blocks until the peer drains it.
     */
    static std::pair<std::unique_ptr<LoopbackTransport>,
                     std::unique_ptr<LoopbackTransport>>
    createPair(size_t window_bytes = kDefaultWindowBytes);

    /** Destruction closes both directions (peer reads then fail). */
    ~LoopbackTransport() override;

    void writeAll(const uint8_t *data, size_t n) override;
    void readAll(uint8_t *data, size_t n) override;
    std::string describe() const override;

  private:
    struct Pipe;
    LoopbackTransport(std::shared_ptr<Pipe> out, std::shared_ptr<Pipe> in,
                      const char *side);

    std::shared_ptr<Pipe> out_;
    std::shared_ptr<Pipe> in_;
    const char *side_;
};

} // namespace haac

#endif // HAAC_NET_LOOPBACK_H
