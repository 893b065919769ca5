#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/log.h"
#include "obs/audit.h"
#include "obs/qos.h"

namespace vantage {

ServeServer::ServeServer(TenantSim &sim, JournalWriter *journal,
                         QosEngine *qos, const DecisionAudit *audit)
    : sim_(sim), journal_(journal), qos_(qos), audit_(audit)
{
    slotLatency_.resize(sim.maxTenants());
}

ServeServer::~ServeServer()
{
    for (Client &client : clients_) {
        if (client.fd >= 0) {
            ::close(client.fd);
        }
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
    }
}

bool
ServeServer::start(std::uint16_t port, std::string &error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = std::string("bind: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    if (::listen(fd, 16) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }

    sockaddr_in bound;
    socklen_t blen = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &blen) == 0) {
        port_ = ntohs(bound.sin_port);
    }
    listenFd_ = fd;
    return true;
}

void
ServeServer::sendFrame(int fd, FrameType type,
                       const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> wire = encodeFrame(type, payload);
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t n = ::send(fd, wire.data() + sent,
                                 wire.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            return; // Client gone; its read side will clean up.
        }
        sent += static_cast<std::size_t>(n);
    }
}

void
ServeServer::acceptClient()
{
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
        return;
    }
    Client client;
    client.fd = fd;
    clients_.push_back(std::move(client));
}

void
ServeServer::dropClient(Client &client)
{
    if (client.slot >= 0) {
        const auto slot = static_cast<std::uint16_t>(client.slot);
        if (journal_ != nullptr) {
            journal_->recordLeave(slot);
        }
        sim_.leave(slot);
        if (qos_ != nullptr) {
            // Stop evaluating the departed tenant's latency sample
            // against whatever SLO the slot's next occupant sets.
            qos_->recordLatency(slot, -1.0);
        }
        client.slot = -1;
    }
    if (client.fd >= 0) {
        ::close(client.fd);
        client.fd = -1;
    }
}

bool
ServeServer::handleFrame(Client &client, const Frame &frame)
{
    ++frames_;
    switch (frame.type) {
      case FrameType::Hello: {
        std::string name;
        std::uint32_t latency_slo_us = 0;
        if (!parseHello(frame.payload, name, latency_slo_us)) {
            sendFrame(client.fd, FrameType::Err,
                      buildErr("malformed HELLO"));
            return false;
        }
        if (client.slot >= 0) {
            sendFrame(client.fd, FrameType::Err,
                      buildErr("tenant already joined"));
            return false;
        }
        const std::int32_t slot = sim_.join(name);
        if (slot < 0) {
            sendFrame(client.fd, FrameType::Err,
                      buildErr("server full"));
            return false;
        }
        if (journal_ != nullptr) {
            // The SLO is serve-side config, deliberately not
            // journaled: replay digests stay independent of it.
            journal_->recordJoin(static_cast<std::uint16_t>(slot),
                                 name);
        }
        client.slot = slot;
        slotLatency_[static_cast<std::size_t>(slot)].reset();
        if (qos_ != nullptr) {
            // 0 clears any SLO left by the slot's previous occupant.
            qos_->setLatencySlo(static_cast<std::uint32_t>(slot),
                                static_cast<double>(latency_slo_us));
        }
        sendFrame(client.fd, FrameType::Ok,
                  buildOkSlot(static_cast<std::uint16_t>(slot)));
        return true;
      }
      case FrameType::AccessBatch: {
        if (client.slot < 0) {
            sendFrame(client.fd, FrameType::Err,
                      buildErr("ACCESS_BATCH before HELLO"));
            return false;
        }
        std::vector<BatchAccess> batch;
        if (!parseAccessBatch(frame.payload, batch)) {
            sendFrame(client.fd, FrameType::Err,
                      buildErr("malformed ACCESS_BATCH"));
            return false;
        }
        const auto slot = static_cast<std::uint16_t>(client.slot);
        const auto t0 = std::chrono::steady_clock::now();
        std::uint32_t hits = 0;
        for (const BatchAccess &a : batch) {
            if (journal_ != nullptr) {
                journal_->recordAccess(slot, a.type, a.addr);
            }
            if (sim_.access(slot, a.addr, a.type) ==
                AccessResult::Hit) {
                ++hits;
            }
        }
        const auto dt = std::chrono::steady_clock::now() - t0;
        Histogram &hist = slotLatency_[slot];
        hist.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()));
        if (qos_ != nullptr) {
            qos_->recordLatency(slot, hist.quantile(0.99) / 1000.0);
        }
        sendFrame(client.fd, FrameType::Ok, buildOkHits(hits));
        return true;
      }
      case FrameType::Stats: {
        if (client.slot < 0) {
            sendFrame(client.fd, FrameType::Err,
                      buildErr("STATS before HELLO"));
            return false;
        }
        const auto slot = static_cast<std::uint16_t>(client.slot);
        const TenantSlotInfo info = sim_.slotInfo(slot);
        TenantStats stats;
        stats.hits = info.hits;
        stats.misses = info.misses;
        stats.targetLines = info.targetLines;
        stats.actualLines = info.actualLines;
        const Histogram &hist = slotLatency_[slot];
        stats.batches = hist.count();
        if (hist.count() > 0) {
            stats.latencyP50Ns = static_cast<std::uint64_t>(
                std::llround(hist.quantile(0.50)));
            stats.latencyP99Ns = static_cast<std::uint64_t>(
                std::llround(hist.quantile(0.99)));
        }
        if (qos_ != nullptr) {
            stats.sloViolations = qos_->totalForPart(slot);
            stats.sloActive = qos_->activeForPart(slot);
        }
        if (audit_ != nullptr) {
            stats.decisions = audit_->totalForPart(slot);
        }
        sendFrame(client.fd, FrameType::StatsReply,
                  buildStatsReply(stats));
        return true;
      }
      case FrameType::Bye:
        sendFrame(client.fd, FrameType::Ok, {});
        return false; // dropClient journals the leave.
      case FrameType::Shutdown:
        sendFrame(client.fd, FrameType::Ok, {});
        shutdown_ = true;
        return true;
      default:
        sendFrame(client.fd, FrameType::Err,
                  buildErr("unknown frame type"));
        return false;
    }
}

void
ServeServer::run()
{
    std::uint8_t buf[64 * 1024];
    while (!shutdown_) {
        std::vector<pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        for (const Client &client : clients_) {
            fds.push_back({client.fd, POLLIN, 0});
        }
        const int ready = ::poll(fds.data(), fds.size(), -1);
        if (ready < 0) {
            if (errno == EINTR) {
                continue;
            }
            warn("serve: poll failed: %s", std::strerror(errno));
            break;
        }

        if ((fds[0].revents & POLLIN) != 0) {
            acceptClient();
        }

        // fds[i + 1] corresponds to clients_[i] as polled; clients
        // are only removed after the scan, so indices stay aligned.
        for (std::size_t i = 0; i < clients_.size() && !shutdown_;
             ++i) {
            if (i + 1 >= fds.size() ||
                (fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) ==
                    0) {
                continue;
            }
            Client &client = clients_[i];
            const ssize_t n = ::recv(client.fd, buf, sizeof(buf), 0);
            if (n <= 0) {
                dropClient(client);
                continue;
            }
            client.decoder.feed(buf, static_cast<std::size_t>(n));
            Frame frame;
            std::string error;
            bool keep = true;
            while (keep && !shutdown_ &&
                   client.decoder.next(frame, error)) {
                keep = handleFrame(client, frame);
            }
            if (!error.empty()) {
                sendFrame(client.fd, FrameType::Err, buildErr(error));
                keep = false;
            }
            if (!keep) {
                dropClient(client);
            }
        }

        // Compact closed connections.
        std::vector<Client> live;
        live.reserve(clients_.size());
        for (Client &client : clients_) {
            if (client.fd >= 0) {
                live.push_back(std::move(client));
            }
        }
        clients_ = std::move(live);
    }

    // Retire whatever is still connected so the session ends with
    // every leave journaled.
    for (Client &client : clients_) {
        dropClient(client);
    }
    clients_.clear();
}

} // namespace vantage
