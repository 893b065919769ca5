/**
 * @file
 * The vsim --serve daemon: a long-running simulation accepting
 * batched access streams from concurrent tenant clients over a local
 * TCP socket, speaking the length-prefixed frame protocol in
 * serve/frame.h.
 *
 * The loop is deliberately single-threaded, multiplexing clients
 * with poll(): the order in which events are pulled off the sockets
 * IS the order they are applied to the TenantSim and appended to the
 * journal, so the journal is a faithful serialization of the session
 * by construction and `vsim --replay` reproduces its digest bit for
 * bit. Client interleaving across connections is whatever the kernel
 * delivered — two live runs may differ from each other, but each
 * run's journal always replays to that run's digest.
 *
 * Protocol per client: HELLO joins a tenant (reply: OK + slot),
 * ACCESS_BATCH runs its accesses (reply: OK + hit count), STATS
 * reports the tenant's counters, BYE retires the tenant and closes
 * the connection. A client that disconnects without BYE is retired
 * the same way (the implicit leave is journaled too). SHUTDOWN stops
 * the daemon. Malformed frames get an ERR reply and the connection
 * is dropped; a joined tenant on a dropped connection is retired.
 *
 * QoS: the server times every ACCESS_BATCH into a per-slot latency
 * histogram and, when given the session's QoS engine, feeds the
 * running p99 to it and forwards HELLO-carried latency SLOs. STATS
 * replies carry the extended TenantStats QoS block (batch latency
 * percentiles, SLO violation counts, audit-trail decision count).
 * All of it is observational: journals and digests are unaffected.
 */

#ifndef VANTAGE_SERVE_SERVER_H_
#define VANTAGE_SERVE_SERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/frame.h"
#include "serve/journal.h"
#include "serve/tenant_sim.h"
#include "stats/histogram.h"

namespace vantage {

class DecisionAudit;
class QosEngine;

/** The --serve daemon. Owns the sockets; borrows the rest. */
class ServeServer
{
  public:
    /**
     * @param sim      the simulation to drive.
     * @param journal  event journal, or nullptr to skip recording.
     * @param qos      the sim's QoS engine, or nullptr.
     * @param audit    the audit ring on the sim's L2, or nullptr.
     */
    ServeServer(TenantSim &sim, JournalWriter *journal,
                QosEngine *qos = nullptr,
                const DecisionAudit *audit = nullptr);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Bind and listen on 127.0.0.1:port (port 0 picks an ephemeral
     * port). @return false with `error` set on failure.
     */
    bool start(std::uint16_t port, std::string &error);

    /** The bound port (after start). */
    std::uint16_t port() const { return port_; }

    /**
     * Serve until a SHUTDOWN frame arrives. Remaining clients are
     * closed (and their tenants retired, journaled as leaves) before
     * returning.
     */
    void run();

    /** Sessions served and frames processed (for the smoke test). */
    std::uint64_t framesProcessed() const { return frames_; }

  private:
    struct Client
    {
        int fd = -1;
        std::int32_t slot = -1; ///< -1 until HELLO admits the tenant.
        FrameDecoder decoder;
    };

    void acceptClient();

    /** @return false when the connection must be dropped. */
    bool handleFrame(Client &client, const Frame &frame);

    /** Retires the client's tenant (journaled) and closes its fd. */
    void dropClient(Client &client);

    void sendFrame(int fd, FrameType type,
                   const std::vector<std::uint8_t> &payload);

    TenantSim &sim_;
    JournalWriter *journal_;
    QosEngine *qos_;
    const DecisionAudit *audit_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    bool shutdown_ = false;
    std::uint64_t frames_ = 0;
    std::vector<Client> clients_;
    /** Per-slot ACCESS_BATCH wall latency (ns); reset on slot reuse. */
    std::vector<Histogram> slotLatency_;
};

} // namespace vantage

#endif // VANTAGE_SERVE_SERVER_H_
