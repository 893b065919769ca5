#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vbench {

double
nsPerTick()
{
    static const double ns = [] {
        // Busy-wait ~20 ms and compare the two clocks over it.
        const std::int64_t n0 = nowNs();
        const std::uint64_t k0 = ticks();
        while (nowNs() - n0 < 20'000'000) {
        }
        const std::int64_t n1 = nowNs();
        const std::uint64_t k1 = ticks();
        return static_cast<double>(n1 - n0) / static_cast<double>(k1 - k0);
    }();
    return ns;
}

double
timerSelfCostTicks()
{
    static const double cost = [] {
        std::vector<double> samples;
        samples.reserve(4096);
        for (int i = 0; i < 4096; ++i) {
            const std::uint64_t t0 = ticks();
            const std::uint64_t t1 = ticks();
            samples.push_back(static_cast<double>(t1 - t0));
        }
        return median(samples);
    }();
    return cost;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    // VmHWM, not getrusage(): ru_maxrss keeps the high-water mark of
    // the process image before exec (the launching interpreter's).
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
        return 0.0;
    }
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf", &kib) == 1) {
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

void
RunResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
}

void
RunResult::setMedian(const std::string &name,
                     const std::vector<double> &samples, const char *unit)
{
    const double mid = median(samples);
    set(name, mid, unit);
    detail[name + ".rep_iqr_share"] =
        mid != 0.0
            ? (quantile(samples, 0.75) - quantile(samples, 0.25)) / mid
            : 0.0;
}

void
RunResult::setBest(const std::string &name,
                   const std::vector<double> &samples, const char *unit)
{
    set(name, quantile(samples, 1.0), unit);
    const double mid = median(samples);
    detail[name + ".rep_median"] = mid;
    detail[name + ".rep_iqr_share"] =
        mid != 0.0
            ? (quantile(samples, 0.75) - quantile(samples, 0.25)) / mid
            : 0.0;
}

void
RunResult::setBatchLatency(const std::vector<std::vector<double>> &passes)
{
    std::vector<double> p50, p99;
    double samples = 0.0;
    for (const std::vector<double> &pass : passes) {
        p50.push_back(quantile(pass, 0.5));
        p99.push_back(quantile(pass, 0.99));
        samples += static_cast<double>(pass.size());
    }
    // Detail only, not BENCHMARK.json metrics: on a shared host even
    // the best rep's p50 moved up to 35 % between runs, its p99 45 %.
    detail["batch_rtt_p50_us"] = quantile(p50, 0.0);
    detail["batch_rtt_p50_us.rep_median"] = median(p50);
    detail["batch_rtt_p99_us"] = quantile(p99, 0.0);
    detail["batch_rtt_p99_us.rep_median"] = median(p99);
    detail["batch_samples"] = samples;
    detail["batch_passes"] = static_cast<double>(passes.size());
}

std::string
fmtDouble(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace vbench
