/**
 * @file
 * perfbench: one workload per process, measured end to end.
 *
 *   perfbench --workload suite|bmc|mutation|service --seed N
 *             --seconds S --trace 0|1 --work-dir DIR [--trace-out PATH]
 *
 * Untraced (--trace 0): set up several times (setup_s is the median),
 * run one warm-up pass, then repeat whole passes for S seconds and
 * report the end-to-end metrics. Traced (--trace 1): alternate an
 * untraced pass with a traced one for S seconds, require bit-identical
 * verdicts, write every span to PATH, and report the per-layer
 * metrics. Either way the independent checks run last, and the final
 * stdout line is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {
namespace {

struct Args
{
    std::string workload;
    std::uint32_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    std::string workDir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "suite|bmc|mutation|service --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out PATH]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            a.workload = val;
        } else if (arg == "--seed") {
            a.seed = static_cast<std::uint32_t>(
                std::strtoul(val.c_str(), &end, 10));
            if (val.empty() || *end)
                usage("bad --seed " + val);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(a.seconds > 0))
                usage("bad --seconds " + val);
        } else if (arg == "--trace") {
            a.trace = val == "1";
        } else if (arg == "--trace-out") {
            a.traceOut = val;
        } else if (arg == "--work-dir") {
            a.workDir = val;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.workDir.empty())
        usage("--work-dir is required");
    return a;
}

struct Usage
{
    double cpuSeconds = 0.0;
    double minorFaults = 0.0;
    double maxRssMib = 0.0;
};

Usage
readUsage()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpuSeconds = static_cast<double>(ru.ru_utime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_sec) +
                   1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                              ru.ru_stime.tv_usec);
    u.minorFaults = static_cast<double>(ru.ru_minflt);
    u.maxRssMib = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

/** The per-layer metrics, in BENCHMARK.json order, with units. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"litmus.synth_ms", "ms"},
    {"uspec.model_ms", "ms"},
    {"vscale.build_ms", "ms"},
    {"rtlcheck.gen_ms", "ms"},
    {"rtlcheck.properties", "count"},
    {"rtl.elab_ms", "ms"},
    {"rtl.nodes_removed", "count"},
    {"rtl.mutate_ms", "ms"},
    {"formal.explore_ms", "ms"},
    {"formal.check_ms", "ms"},
    {"formal.verify_ms", "ms"},
    {"formal.graph_nodes", "count"},
    {"formal.product_states", "count"},
    {"formal.cache_hits", "count"},
    {"formal.cache_mib", "MiB"},
    {"formal.miter_ms", "ms"},
    {"formal.miter_conflicts", "count"},
    {"formal.miter_pruned", "count"},
    {"campaign.verifications", "count"},
    {"campaign.kills_per_verification", "ratio"},
    {"sat.vars", "count"},
    {"sat.clauses", "count"},
    {"sat.solves", "count"},
    {"sat.conflicts", "count"},
    {"sat.learned_reuse", "count"},
    {"service.miss_ms", "ms"},
    {"service.hit_ms", "ms"},
    {"service.store_mib", "MiB"},
    {"daemon.queue_ms", "ms"},
    {"proc.minor_faults", "count"},
};

/** Spans timed per set-up (median over set-ups) and per traced pass
 *  (median over passes); each becomes the metric "<name>_ms". */
const std::vector<std::string> kSetupSpans = {"litmus.synth",
                                              "rtl.mutate"};
const std::vector<std::string> kPassSpans = {
    "vscale.build", "rtlcheck.gen", "rtl.elab", "formal.verify"};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Counts operations and holds every pass to the warm-up's verdicts. */
struct Tally
{
    bool correct = true;
    std::size_t verdicts = 0;
    std::size_t failed = 0;
    std::vector<std::uint64_t> reference;

    void add(const PassResult &r, const char *what)
    {
        verdicts += r.verdictMs.size();
        failed += r.failed;
        if (reference.empty()) {
            reference = r.digests;
        } else if (r.digests != reference) {
            std::printf("error: %s verdicts differ from the warm-up "
                        "pass\n",
                        what);
            correct = false;
        }
    }
};

/** Set-ups made before each timed pass (see run()). */
constexpr int kSetupsPerPass = 5;

/** The end-to-end metrics from untraced passes. setup_s is the median
 *  over `setupSeconds` and the kSetupsPerPass set-ups made before each
 *  timed pass. Throughput and CPU
 *  come from the median pass, so a transient slowdown of the host
 *  moves them less than a mean would. Percentiles likewise come from
 *  each pass when a pass has at least kPassPercentileMin verdicts
 *  (then the median over passes is reported), else from the pooled
 *  verdicts of every pass. */
std::vector<Metric>
measure(Workload &w, const Args &args, Tally &tally,
        std::vector<double> setupSeconds, double peakRssMib)
{
    constexpr std::size_t kPassPercentileMin = 100;
    std::vector<double> latencies, passSeconds, passCpu, passP50,
        passP90;
    std::size_t perPass = 0;
    const double t0 = nowSeconds();
    do {
        for (int i = 0; i < kSetupsPerPass; ++i) {
            w.teardown();
            const double s0 = nowSeconds();
            w.setup(args.seed, nullptr, -1);
            setupSeconds.push_back(nowSeconds() - s0);
        }
        w.reset();
        const Usage u0 = readUsage();
        const double p0 = nowSeconds();
        PassResult r = w.pass(nullptr, -1);
        passSeconds.push_back(nowSeconds() - p0);
        passCpu.push_back(readUsage().cpuSeconds - u0.cpuSeconds);
        perPass = r.verdictMs.size();
        passP50.push_back(quantile(r.verdictMs, 0.5));
        passP90.push_back(quantile(r.verdictMs, 0.9));
        latencies.insert(latencies.end(), r.verdictMs.begin(),
                         r.verdictMs.end());
        tally.add(r, "timed pass");
    } while (nowSeconds() - t0 < args.seconds);

    const bool perPassPercentiles = perPass >= kPassPercentileMin;
    const double n = static_cast<double>(perPass);
    std::printf("timed: %zu passes of %zu verdicts; pass ms min %.1f "
                "median %.1f max %.1f; peak RSS %.1f MiB after warm-up, "
                "%.1f MiB at the end\n",
                passSeconds.size(), perPass,
                quantile(passSeconds, 0) * 1e3, median(passSeconds) * 1e3,
                quantile(passSeconds, 1) * 1e3, peakRssMib,
                readUsage().maxRssMib);
    return {
        {"setup_s", median(setupSeconds), "s"},
        {"verdicts_per_s", n / median(passSeconds), "1/s"},
        {"cpu_ms_per_verdict", median(passCpu) * 1e3 / n, "ms"},
        {"verdict_p50_ms",
         perPassPercentiles ? median(passP50) : quantile(latencies, 0.5),
         "ms"},
        {"verdict_p90_ms",
         perPassPercentiles ? median(passP90) : quantile(latencies, 0.9),
         "ms"},
        {"peak_rss_mib", peakRssMib, "MiB"},
    };
}

int
rootOf(const std::vector<Span> &spans, int id)
{
    while (spans[static_cast<std::size_t>(id)].parent >= 0)
        id = spans[static_cast<std::size_t>(id)].parent;
    return id;
}

/** What the traced run learned about where a pass spends its time. */
struct SelfTimes
{
    std::map<std::string, double> msPerPass; ///< by layer
    bool layered = false;     ///< passes are split into layer spans
    double minCoverage = 1.0; ///< least share of a pass in layer spans
    double overheadMs = 0.0;  ///< median traced - median untraced pass
};

void
writeTrace(const Args &args, const std::vector<Span> &spans,
           const std::vector<double> &self, const SelfTimes &st,
           Tally &tally)
{
    std::ofstream out(args.traceOut);
    out << "{\"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"overhead_ms\": " << num(st.overheadMs)
        << ", \"min_coverage\": "
        << (st.layered ? num(st.minCoverage) : "null")
        << ",\n \"self_ms_per_pass\": {";
    const char *sep = "";
    for (const auto &[layer, ms] : st.msPerPass) {
        out << sep << jsonString(layer) << ": " << num(ms);
        sep = ", ";
    }
    out << "},\n \"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
            << ", \"start_ms\": " << num(s.start * 1e3)
            << ", \"end_ms\": " << num(s.end * 1e3)
            << ", \"parent\": " << s.parent
            << ", \"verdict\": " << s.verdict
            << ", \"self_ms\": " << num(self[i] * 1e3) << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << " ]}\n";
    if (!out) {
        std::printf("error: cannot write %s\n", args.traceOut.c_str());
        tally.correct = false;
        return;
    }
    std::printf("trace: wrote %zu spans to %s\n", spans.size(),
                args.traceOut.c_str());
}

/** The per-layer metrics: untraced and traced passes alternate. */
std::vector<Metric>
measureTraced(Workload &w, const Args &args, Tally &tally,
              Tracer &tracer, const std::vector<int> &setupRoots)
{
    std::vector<double> plain, traced, faults;
    std::vector<int> passRoots;
    std::map<std::string, std::vector<double>> layer;
    const double t0 = nowSeconds();
    do {
        w.reset();
        const Usage u0 = readUsage();
        double p0 = nowSeconds();
        PassResult r = w.pass(nullptr, -1);
        plain.push_back(nowSeconds() - p0);
        faults.push_back(readUsage().minorFaults - u0.minorFaults);
        tally.add(r, "untraced pass");

        w.reset();
        p0 = nowSeconds();
        Scope root(&tracer, "pass", -1);
        PassResult t = w.pass(&tracer, root.id());
        traced.push_back(nowSeconds() - p0);
        passRoots.push_back(root.id());
        tally.add(t, "traced pass");
        for (const auto &[k, v] : t.layer)
            layer[k].push_back(v);
    } while (nowSeconds() - t0 < args.seconds);

    const std::vector<Span> spans = tracer.spans();
    const std::vector<double> self = Tracer::selfTimes(spans);

    // Named-span durations per root (a set-up or a traced pass).
    std::map<int, std::map<std::string, double>> ms;
    for (std::size_t i = 0; i < spans.size(); ++i)
        ms[rootOf(spans, static_cast<int>(i))][spans[i].name] +=
            (spans[i].end - spans[i].start) * 1e3;
    auto medianOver = [&](const std::vector<int> &roots,
                          const std::string &name) {
        std::vector<double> v;
        for (int root : roots)
            v.push_back(ms[root][name]);
        return median(v);
    };

    std::map<std::string, double> values;
    for (const auto &[k, v] : layer)
        values[k] = median(v);
    values["proc.minor_faults"] = median(faults);
    values["uspec.model_ms"] = ms[setupRoots.front()]["uspec.model"];
    for (const std::string &name : kSetupSpans)
        values[name + "_ms"] = medianOver(setupRoots, name);
    for (const std::string &name : kPassSpans)
        values[name + "_ms"] = medianOver(passRoots, name);

    // Self time by layer over the traced passes, and how much of each
    // pass the layer spans account for.
    SelfTimes st;
    st.layered = w.layered();
    const std::set<int> passSet(passRoots.begin(), passRoots.end());
    std::map<int, double> harnessSelf;
    double selfTotal = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int root = rootOf(spans, static_cast<int>(i));
        if (!passSet.count(root))
            continue;
        const std::string l = Tracer::layerOf(spans[i].name);
        st.msPerPass[l] +=
            self[i] * 1e3 / static_cast<double>(passRoots.size());
        selfTotal += self[i];
        if (l == "harness")
            harnessSelf[root] += self[i];
    }
    for (int root : passRoots) {
        const Span &s = spans[static_cast<std::size_t>(root)];
        st.minCoverage = std::min(
            st.minCoverage, 1.0 - harnessSelf[root] / (s.end - s.start));
    }
    st.overheadMs = (median(traced) - median(plain)) * 1e3;

    std::printf("trace: %zu traced passes, median %.3f ms traced vs "
                "%.3f ms untraced, overhead %.3f ms\n",
                traced.size(), median(traced) * 1e3, median(plain) * 1e3,
                st.overheadMs);
    if (st.layered)
        std::printf("trace: layer spans cover >= %.1f%% of every traced "
                    "pass\n",
                    st.minCoverage * 100.0);
    else
        std::printf("trace: one public call spans each verdict, so a "
                    "pass has no split by layer\n");
    // Shares are of summed self time: concurrent spans (the service
    // clients) can add up to more than a pass's wall time.
    const double passes = static_cast<double>(passRoots.size());
    for (const auto &[l, m] : st.msPerPass)
        std::printf("trace: self %-9s %9.3f ms/pass  %5.1f%%\n", l.c_str(),
                    m, 100.0 * m * passes / (selfTotal * 1e3));
    if (st.layered && st.minCoverage < 0.9) {
        std::printf("error: layer spans cover under 90%% of a traced "
                    "pass\n");
        tally.correct = false;
    }
    if (!args.traceOut.empty())
        writeTrace(args, spans, self, st, tally);

    std::vector<Metric> metrics;
    for (const auto &[name, unit] : kLayerMetrics)
        metrics.push_back({name, values[name], unit});
    return metrics;
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += tally.correct ? "true" : "false";
    out += ", \"attempted\": " +
           std::to_string(tally.verdicts + tally.failed);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               num(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
run(const Args &args)
{
    std::unique_ptr<Workload> w;
    if (args.workload == "suite")
        w = makeSuiteWorkload();
    else if (args.workload == "bmc")
        w = makeBmcWorkload();
    else if (args.workload == "mutation")
        w = makeMutationWorkload();
    else if (args.workload == "service")
        w = makeServiceWorkload(args.workDir);
    else
        usage("unknown workload " + args.workload);

    std::unique_ptr<Tracer> tracer;
    if (args.trace)
        tracer = std::make_unique<Tracer>();

    // A set-up takes a millisecond or so, much of it thread start-up,
    // and a shared host slows a whole stretch of a few milliseconds at
    // a time. So setup_s is the median of many set-ups spread over the
    // run: one here, then kSetupsPerPass before every timed pass. The
    // traced run sets up kTracedSetups times here; the set-up layers
    // are medians over those.
    constexpr int kTracedSetups = 61;
    const int setups = tracer ? kTracedSetups : 1;
    std::vector<double> setupSeconds;
    std::vector<int> setupRoots;
    for (int i = 0; i < setups; ++i) {
        if (i)
            w->teardown();
        const double t0 = nowSeconds();
        Scope root(tracer.get(), "setup", -1);
        w->setup(args.seed, tracer.get(), root.id());
        setupSeconds.push_back(nowSeconds() - t0);
        setupRoots.push_back(root.id());
    }
    std::printf("%s\n", w->describe().c_str());

    // Warm-up pass: untimed, fixes the reference verdicts. Peak RSS
    // is read after it: set-up plus one whole pass over the inputs.
    // Later passes repeat the same work; what they add is allocator
    // fragmentation that differs by 20-70 % from process to process.
    Tally tally;
    w->reset();
    tally.add(w->pass(nullptr, -1), "warm-up");
    tally.verdicts = tally.failed = 0;
    const double peakRssMib = readUsage().maxRssMib;

    const std::vector<Metric> metrics =
        tracer ? measureTraced(*w, args, tally, *tracer, setupRoots)
               : measure(*w, args, tally, setupSeconds, peakRssMib);

    Checker checker;
    w->check(checker);
    w->teardown();
    std::printf("check: %zu independent checks, %zu failed\n",
                checker.checks(), checker.failures().size());
    for (const std::string &f : checker.failures())
        std::printf("check failed: %s\n", f.c_str());
    if (!checker.failures().empty() || checker.checks() == 0)
        tally.correct = false;

    printResult(tally, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
