#include "obs/metrics_service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/hp_alloc.h"
#include "common/log.h"
#include "obs/prometheus.h"
#include "stats/registry.h"

namespace vantage {

MetricsService::MetricsService(MetricsServiceConfig cfg)
    : cfg_(std::move(cfg)), startTime_(std::chrono::steady_clock::now())
{
    if (cfg_.epochMillis == 0) {
        cfg_.epochMillis = 1;
    }
}

MetricsService::~MetricsService()
{
    stop();
}

double
MetricsService::nowSeconds() const
{
    const auto dt = std::chrono::steady_clock::now() - startTime_;
    return std::chrono::duration<double>(dt).count();
}

bool
MetricsService::start(std::string &error)
{
    if (running_.load()) {
        error = "metrics service already running";
        return false;
    }

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
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        error = "bad bind address: " + cfg_.bindAddress;
        ::close(fd);
        return false;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = std::string("bind: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    if (::listen(fd, 8) != 0) {
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
    running_.store(true);
    sampler_ = std::thread([this] { samplerLoop(); });
    server_ = std::thread([this] { serverLoop(); });
    return true;
}

void
MetricsService::stop()
{
    if (!running_.exchange(false)) {
        return;
    }
    samplerCv_.notify_all();
    if (listenFd_ >= 0) {
        // Unblock the accept loop; close happens after the join so a
        // racing accept never sees a recycled descriptor.
        ::shutdown(listenFd_, SHUT_RDWR);
    }
    if (sampler_.joinable()) {
        sampler_.join();
    }
    if (server_.joinable()) {
        server_.join();
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
MetricsService::addSource(const std::string &job,
                          const StatsRegistry *reg)
{
    if (reg == nullptr) {
        return;
    }
    Source src;
    src.job = job;
    src.reg = reg;
    src.prev = takeSnapshot(*reg, 0, nowSeconds());
    std::lock_guard<std::mutex> lock(mutex_);
    sources_.push_back(std::move(src));
}

void
MetricsService::removeSource(const StatsRegistry *reg)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        if (sources_[i].reg == reg) {
            sources_.erase(sources_.begin() +
                           static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

void
MetricsService::sampleAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Source &src : sources_) {
        StatsSnapshot cur = takeSnapshot(
            *src.reg, src.prev.epoch + 1, nowSeconds());
        src.delta = deltaBetween(src.prev, cur);
        src.prev = std::move(cur);
        src.epochsSampled++;
    }
    epochs_.fetch_add(1, std::memory_order_relaxed);
}

void
MetricsService::samplerLoop()
{
    const auto period = std::chrono::milliseconds(cfg_.epochMillis);
    std::unique_lock<std::mutex> lock(samplerMutex_);
    while (running_.load()) {
        samplerCv_.wait_for(lock, period,
                            [this] { return !running_.load(); });
        if (!running_.load()) {
            return;
        }
        sampleAll();
    }
}

std::string
MetricsService::render()
{
    PromDoc doc;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Source &src : sources_) {
            const std::vector<PromLabel> jobLabel = {
                {"job", src.job}};

            // Scalars: latest sampled value, plus a *_per_second
            // gauge for counters once a delta window exists.
            for (const auto &[path, sample] : src.prev.values) {
                PromName pn = promName(path);
                std::vector<PromLabel> labels = jobLabel;
                labels.insert(labels.end(), pn.labels.begin(),
                              pn.labels.end());
                doc.add(pn.name, labels,
                        sample.isCounter ? PromDoc::Type::Counter
                                         : PromDoc::Type::Gauge,
                        sample.value);
                if (!sample.isCounter) {
                    continue;
                }
                const auto it = src.delta.entries.find(path);
                if (it == src.delta.entries.end()) {
                    continue;
                }
                const double rate = it->second.rate;
                if (std::isfinite(rate)) {
                    doc.add(pn.name + "_per_second",
                            std::move(labels), PromDoc::Type::Gauge,
                            rate);
                }
            }

            // Histograms render live (they are not part of the
            // scalar snapshot): quantiles plus _sum/_count.
            src.reg->forEachHistogram(
                [&doc, &jobLabel](const std::string &path,
                                  const Histogram &hist) {
                    PromName pn = promName(path);
                    std::vector<PromLabel> labels = jobLabel;
                    labels.insert(labels.end(), pn.labels.begin(),
                                  pn.labels.end());
                    doc.addSummary(pn.name, std::move(labels), hist);
                });

            // Strings become *_info{value="..."} 1 marker gauges.
            src.reg->forEachString(
                [&doc, &jobLabel](const std::string &path,
                                  const std::string &text) {
                    PromName pn = promName(path);
                    std::vector<PromLabel> labels = jobLabel;
                    labels.insert(labels.end(), pn.labels.begin(),
                                  pn.labels.end());
                    labels.push_back({"value", text});
                    doc.add(pn.name + "_info", std::move(labels),
                            PromDoc::Type::Gauge, 1.0);
                });

            doc.add("vsim_exporter_source_epochs",
                    {{"job", src.job}}, PromDoc::Type::Counter,
                    static_cast<double>(src.epochsSampled));
        }
    }

    doc.add("vsim_exporter_epochs_total", {}, PromDoc::Type::Counter,
            static_cast<double>(epochs()));
    doc.add("vsim_exporter_scrapes_total", {}, PromDoc::Type::Counter,
            static_cast<double>(scrapes()));
    doc.add("vsim_exporter_epoch_seconds", {}, PromDoc::Type::Gauge,
            static_cast<double>(cfg_.epochMillis) / 1000.0);
    // Whether this process got huge-page planes: lets dashboards
    // split hosts when comparing throughput.
    doc.add("vantage_build_info",
            {{"hugepages", hugePagesEnabled() ? "on" : "off"}},
            PromDoc::Type::Gauge, 1.0);

    std::ostringstream out;
    doc.write(out);
    return out.str();
}

void
MetricsService::handleClient(int fd)
{
    // Read until the end of the request headers (or a small cap —
    // scrape requests are tiny).
    std::string req;
    char buf[1024];
    while (req.find("\r\n\r\n") == std::string::npos &&
           req.size() < 16384) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            break;
        }
        req.append(buf, static_cast<std::size_t>(n));
        if (req.find("\n\n") != std::string::npos) {
            break;
        }
    }

    std::string method, path;
    {
        std::istringstream line(req.substr(0, req.find('\n')));
        line >> method >> path;
    }
    const std::size_t q = path.find('?');
    if (q != std::string::npos) {
        path.resize(q);
    }

    std::string body, status;
    if (method == "GET" && (path == "/metrics" || path == "/")) {
        scrapes_.fetch_add(1, std::memory_order_relaxed);
        body = render();
        status = "200 OK";
    } else {
        body = "not found; try /metrics\n";
        status = "404 Not Found";
    }

    std::ostringstream resp;
    resp << "HTTP/1.1 " << status << "\r\n"
         << "Content-Type: text/plain; version=0.0.4; "
            "charset=utf-8\r\n"
         << "Content-Length: " << body.size() << "\r\n"
         << "Connection: close\r\n\r\n"
         << body;
    const std::string out = resp.str();

    std::size_t sent = 0;
    while (sent < out.size()) {
        const ssize_t n = ::send(fd, out.data() + sent,
                                 out.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            break;
        }
        sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
}

void
MetricsService::serverLoop()
{
    while (running_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (!running_.load()) {
                return;
            }
            if (errno == EINTR || errno == ECONNABORTED) {
                continue;
            }
            warn("metrics: accept failed: %s",
                 std::strerror(errno));
            return;
        }
        handleClient(fd);
    }
}

} // namespace vantage
