/**
 * @file
 * The `service` workload: two in-process rtlcheckd daemons with 2
 * workers each, driven in a closed loop by 3 client connections per
 * daemon sending single `verify` requests. A pass sends every request
 * twice:
 *
 *  - the cold round goes to a daemon without a persistent store, whose
 *    graph cache is cleared before each pass (untimed), so every
 *    request verifies from scratch;
 *  - the warm round goes to a daemon whose artifact store was filled
 *    with every request's verdict once, before the first pass
 *    (untimed), so every request is a full-key store hit: the prepare
 *    stage, a store read and a deserialisation, with no elaboration
 *    or exploration.
 *
 * The store lives in the work directory. It is written only by the
 * fill: every store publish waits for an fsync, whose latency on the
 * disk that holds the checkout drifts from 0.4 to 1.2 ms (median) and
 * up to 22 ms from minute to minute, so a timed round that writes
 * would measure the disk (README.md, "The service store"). Each set-up
 * starts both daemons and connects their clients, so a pass pays for
 * no new daemon threads; set-ups after the fill start the warm daemon
 * on the filled store.
 */

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>

#include "harness.hh"
#include "litmus/suite.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "uspec/multivscale.hh"
#include "uspec/parser.hh"

namespace perfbench {

using namespace rtlcheck;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 3;

/** Reply fields that carry the verdict (not timing or provenance). */
const char *const kVerdictFields[] = {"test",    "verified", "props",
                                      "proven",  "bounded",  "falsified",
                                      "cover",   "engine"};

struct Request
{
    const litmus::Test *test = nullptr;
    std::string design; ///< "fixed" or "buggy"
};

struct Reply
{
    std::optional<service::Message> message;
    double rttMs = 0.0;
};

std::string
field(const service::Message &m, const std::string &key)
{
    auto it = m.find(key);
    return it == m.end() ? std::string() : it->second;
}

/** One daemon and the connections that drive it. */
struct Endpoint
{
    std::string socketPath;
    std::unique_ptr<service::Daemon> daemon;
    std::array<service::Client, kClients> clients;
    std::thread runner; ///< declared last: it uses daemon

    void start(const service::DaemonConfig &config)
    {
        socketPath = config.socketPath;
        daemon = std::make_unique<service::Daemon>(config);
        std::string error;
        if (!daemon->start(&error))
            fatal("daemon: " + error);
        runner = std::thread([this] { daemon->run(); });
        for (service::Client &c : clients)
            if (!c.connect(socketPath, &error))
                fatal("client: " + error);
    }

    void stop()
    {
        for (service::Client &c : clients)
            c.close();
        if (runner.joinable()) {
            daemon->requestStop();
            runner.join(); // the daemon unlinks its socket on the way out
        }
        daemon.reset();
    }

    [[noreturn]] static void fatal(const std::string &why)
    {
        std::fprintf(stderr, "perfbench: service: %s\n", why.c_str());
        std::exit(1);
    }
};

class ServiceWorkload : public Workload
{
  public:
    explicit ServiceWorkload(std::string workDir)
        : _dir(std::move(workDir))
    {
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }

    ~ServiceWorkload() override
    {
        teardown();
        fs::remove_all(_dir);
    }

    void setup(std::uint32_t seed, Tracer *tracer, int parent) override
    {
        {
            // Parsed afresh: the daemon's own model is built once per
            // process, so only the first set-up would pay for it.
            Scope s(tracer, "uspec.model", parent);
            _model = std::make_unique<uspec::Model>(
                uspec::parseModel(uspec::multiVscaleSource()));
        }
        _requests.clear();
        for (const char *design : {"fixed", "buggy"})
            for (const litmus::Test &t : litmus::standardSuite())
                _requests.push_back({&t, design});
        std::mt19937 rng(seed);
        std::shuffle(_requests.begin(), _requests.end(), rng);

        Scope s(tracer, "service.start", parent);
        service::DaemonConfig config;
        config.workers = kWorkers;
        config.socketPath = _dir + "/cold.sock";
        _cold.start(config);
        config.socketPath = _dir + "/warm.sock";
        config.service.storeDir = storeDir();
        // The warm daemon answers verdicts from its store alone: it
        // persists no graphs, and the smallest cache budget keeps the
        // fill from holding every graph it explores, which would set
        // the process's peak RSS.
        config.service.persistGraphs = false;
        config.service.cacheBytes = 1;
        _warm.start(config);
    }

    void teardown() override
    {
        _cold.stop();
        _warm.stop();
    }

    void reset() override
    {
        _cold.daemon->service().graphCache().clear();
        if (_storeMib < 0)
            fillStore();
    }

    PassResult pass(Tracer *tracer, int parent) override
    {
        PassResult r;
        std::vector<Reply> cold = round(_cold, tracer, parent,
                                        "service.miss");
        std::vector<Reply> warm = round(_warm, tracer, parent,
                                        "service.hit");

        std::vector<double> missMs, hitMs, queueMs;
        for (int pass = 0; pass < 2; ++pass) {
            for (const Reply &reply : pass ? warm : cold) {
                if (!reply.message ||
                    field(*reply.message, "status") != "ok") {
                    ++r.failed;
                    continue;
                }
                r.verdictMs.push_back(reply.rttMs);
                (pass ? hitMs : missMs).push_back(reply.rttMs);
                queueMs.push_back(
                    reply.rttMs -
                    std::stod(field(*reply.message, "ms")));
                std::string d;
                for (const char *k : kVerdictFields)
                    d += field(*reply.message, k) + '\x1f';
                r.digests.push_back(fnv1a(d));
            }
        }
        r.layer = {{"service.miss_ms", quantile(missMs, 0.5)},
                   {"service.hit_ms", quantile(hitMs, 0.5)},
                   {"daemon.queue_ms", quantile(queueMs, 0.5)},
                   {"service.store_mib", _storeMib}};
        if (!tracer) {
            _lastCold = std::move(cold);
            _lastWarm = std::move(warm);
        }
        return r;
    }

    void check(Checker &checker) override
    {
        // Each reply must match a direct, store-less core::runTest of
        // the same request, field for field. Cold replies must have
        // been verified, warm ones served from the store.
        for (std::size_t i = 0; i < _requests.size(); ++i) {
            const Request &q = _requests[i];
            core::RunOptions o;
            if (q.design == "buggy")
                o.variant = vscale::MemoryVariant::Buggy;
            o.config = formal::fullProofConfig();
            o.config.jobs = 1;
            core::TestRun run = core::runTest(*q.test, *_model, o);
            const std::string cover =
                run.verify.coverUnreachable
                    ? "unreachable"
                    : (run.verify.coverReached ? "reached" : "bounded");
            const std::map<std::string, std::string> want = {
                {"test", run.testName},
                {"verified", run.verified() ? "1" : "0"},
                {"props", std::to_string(run.numProperties)},
                {"proven", std::to_string(run.verify.numProven())},
                {"bounded", std::to_string(run.verify.numBounded())},
                {"falsified", std::to_string(run.verify.numFalsified())},
                {"cover", cover},
                {"engine", run.verify.engineUsed}};
            for (int pass = 0; pass < 2; ++pass) {
                const Reply &reply = pass ? _lastWarm[i] : _lastCold[i];
                const std::string where =
                    std::string(pass ? "warm " : "cold ") + q.design +
                    "/" + q.test->name;
                checker.expect(reply.message.has_value(),
                               where + ": reply received");
                if (!reply.message)
                    continue;
                for (const auto &[k, v] : want)
                    checker.expect(field(*reply.message, k) == v,
                                   where + ": reply field " + k +
                                       " matches core::runTest");
                checker.expect(field(*reply.message, "served") ==
                                   (pass ? "1" : "0"),
                               where + (pass ? ": served from the store"
                                             : ": verified afresh"));
            }
        }
    }

    std::string describe() const override
    {
        return "service: " + std::to_string(_requests.size()) +
               " verify requests (56 paper tests x {fixed, buggy}) per "
               "round, each daemon with " +
               std::to_string(kWorkers) + " workers and " +
               std::to_string(kClients) +
               " closed-loop clients; cold round on a store-less daemon, "
               "warm round as full-key hits on a store filled once";
    }

  private:
    std::string storeDir() const { return _dir + "/store"; }

    /** Publish every request's verdict to the warm daemon's store,
     *  once, before the first pass; then drop the graphs the fill
     *  explored, so the warm rounds run on the store alone. */
    void fillStore()
    {
        for (const Reply &reply : round(_warm, nullptr, -1, ""))
            if (!reply.message ||
                field(*reply.message, "status") != "ok")
                Endpoint::fatal("store fill: a request failed");
        _warm.daemon->service().graphCache().clear();
        // Hand what the fill freed back to the system, so that the
        // peak RSS read after the warm-up pass is that of the passes.
        malloc_trim(0);
        std::uintmax_t bytes = 0;
        for (const auto &e : fs::recursive_directory_iterator(storeDir()))
            if (e.is_regular_file())
                bytes += e.file_size();
        _storeMib = static_cast<double>(bytes) / (1024.0 * 1024.0);
    }

    /** Send every request once, over the endpoint's connections. */
    std::vector<Reply> round(Endpoint &ep, Tracer *tracer, int parent,
                             const std::string &spanName)
    {
        std::vector<Reply> replies(_requests.size());
        std::atomic<std::size_t> next{0};
        auto client = [&](service::Client &c) {
            for (std::size_t i = next++; i < _requests.size();
                 i = next++) {
                service::Message m{{"cmd", "verify"},
                                   {"test", _requests[i].test->name},
                                   {"model", "sc"},
                                   {"design", _requests[i].design},
                                   {"config", "full"},
                                   {"engine", "explicit"}};
                Scope s(tracer, spanName, parent,
                        static_cast<std::int64_t>(i));
                const double t0 = nowSeconds();
                // A dropped connection leaves the reply empty, which
                // counts as a failed operation.
                if (c.connected())
                    replies[i].message = c.request(std::move(m));
                replies[i].rttMs = (nowSeconds() - t0) * 1e3;
            }
        };
        std::vector<std::thread> threads;
        for (service::Client &c : ep.clients)
            threads.emplace_back(client, std::ref(c));
        for (std::thread &t : threads)
            t.join();
        return replies;
    }

    std::string _dir;
    std::unique_ptr<uspec::Model> _model;
    std::vector<Request> _requests;
    Endpoint _cold, _warm;
    double _storeMib = -1.0; ///< negative until the store is filled
    std::vector<Reply> _lastCold, _lastWarm;
};

} // namespace

std::unique_ptr<Workload>
makeServiceWorkload(const std::string &workDir)
{
    return std::make_unique<ServiceWorkload>(workDir);
}

} // namespace perfbench
