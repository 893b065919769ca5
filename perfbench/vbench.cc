/**
 * @file
 * vbench: host-speed benchmark driver for the Vantage simulator.
 *
 *   vbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *          [--selftest] [--work-dir DIR]
 *
 * Runs one workload (see workloads.h) and prints one JSON object on
 * stdout: build fingerprint, outcome digest, checked executions and
 * failures, the metrics (end-to-end with --trace 0, per-layer with
 * --trace 1) and workload-specific detail. run.py turns it into the
 * benchmark's result line and checks the digest against the pins.
 *
 * Refuses to run (exit 2) in builds that measure a different
 * program: VANTAGE_CHECK / VANTAGE_TRACE / VANTAGE_PROF, a sanitizer,
 * or no optimization.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/hp_alloc.h"
#include "harness.h"
#include "simd/simd.h"
#include "workloads.h"

namespace {

using namespace vbench;

/** Why this build must not report, or empty when it may. */
std::string
refusalReason()
{
    std::vector<std::string> why;
#ifdef VANTAGE_CHECK_ENABLED
    why.push_back("VANTAGE_CHECK");
#endif
#ifdef VANTAGE_TRACE_ENABLED
    why.push_back("VANTAGE_TRACE");
#endif
#ifdef VANTAGE_PROF_ENABLED
    why.push_back("VANTAGE_PROF");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why.push_back("sanitizer");
#endif
#ifndef __OPTIMIZE__
    why.push_back("unoptimized");
#endif
    std::string out;
    for (const std::string &w : why) {
        out += (out.empty() ? "" : ", ") + w;
    }
    return out;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "vbench: %s\nusage: vbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--selftest] "
                 "[--work-dir DIR]\n",
                 msg);
    return 1;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
printResult(const std::string &workload, const RunOptions &opt,
            const RunResult &r)
{
    std::string s = "{\"workload\":\"" + jsonEscape(workload) + "\"";
    s += ",\"seed\":" + std::to_string(opt.seed);
    s += ",\"trace\":" + std::string(opt.trace ? "1" : "0");
    s += ",\"digest\":\"" + hex(r.digest) + "\"";
    s += ",\"fingerprint\":{\"simd\":\"" +
         std::string(vantage::simd::levelName()) + "\"";
    s += ",\"hugepages\":" +
         std::string(vantage::hugePagesEnabled() ? "true" : "false");
    s += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    s += ",\"build_type\":\"" + jsonEscape(VBENCH_BUILD_TYPE) + "\"";
    s += ",\"compiler\":\"" + jsonEscape(__VERSION__) + "\"";
    s += ",\"timer_self_ns\":" +
         fmtDouble(timerSelfCostTicks() * nsPerTick()) + "}";
    s += ",\"attempted\":" + std::to_string(r.attempted);
    s += ",\"failed\":" + std::to_string(r.failed);
    s += ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
        s += (i ? ",\"" : "\"") + jsonEscape(r.failures[i]) + "\"";
    }
    s += "],\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        s += (first ? "\"" : ",\"") + jsonEscape(name) +
             "\":{\"value\":" + fmtDouble(m.value) + ",\"unit\":\"" +
             jsonEscape(m.unit) + "\"}";
        first = false;
    }
    s += "},\"detail\":{";
    first = true;
    for (const auto &[name, v] : r.detail) {
        s += (first ? "\"" : ",\"") + jsonEscape(name) +
             "\":" + fmtDouble(v);
        first = false;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    opt.workDir = ".";
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--selftest") {
            opt.selftest = true;
        } else if (arg == "--workload" && (v = value())) {
            workload = v;
        } else if (arg == "--seed" && (v = value())) {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds" && (v = value())) {
            opt.seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace" && (v = value())) {
            opt.trace = std::string(v) == "1";
        } else if (arg == "--work-dir" && (v = value())) {
            opt.workDir = v;
        } else {
            return usage(("bad argument '" + arg + "'").c_str());
        }
    }

    const std::string refusal = refusalReason();
    if (!refusal.empty()) {
        std::fprintf(stderr,
                     "vbench: refusing to report from a %s build: it "
                     "measures a different program\n",
                     refusal.c_str());
        return 2;
    }

    RunResult result;
    if (workload == "cmp32_fig7") {
        result = runCmp32(opt);
    } else if (workload == "serve_socket") {
        result = runServeSocket(opt);
    } else {
        return usage(("unknown workload '" + workload + "'").c_str());
    }
    printResult(workload, opt, result);
    return 0;
}
