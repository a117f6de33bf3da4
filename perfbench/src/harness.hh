/**
 * @file
 * The benchmark's workload interface and measurement loop.
 *
 * A workload builds its inputs from a seed (setup), then answers
 * repeated passes over those fixed inputs through the program's
 * public entry points. Every pass yields the caller-seen latency and
 * a verdict digest of each verdict it produced. After the timed
 * passes the workload checks its last pass against computations made
 * apart from the program (checks count toward no metric).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** What one pass produced. */
struct PassResult
{
    /** Caller-seen milliseconds per verdict. */
    std::vector<double> verdictMs;
    /** One digest per verdict, in a fixed order: equal digests mean
     *  bit-identical verdicts. */
    std::vector<std::uint64_t> digests;
    /** Operations that returned an error instead of a verdict. */
    std::size_t failed = 0;
    /** Per-layer counts and times of this pass, by metric name. */
    std::map<std::string, double> layer;
};

/** Collects the outcome of the independent verdict checks. */
class Checker
{
  public:
    void expect(bool ok, const std::string &what);
    std::size_t checks() const { return _checks; }
    const std::vector<std::string> &failures() const { return _failures; }

  private:
    std::size_t _checks = 0;
    std::vector<std::string> _failures;
};

class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;
    /** Build every input from `seed`; timed as setup_s. Spans go
     *  under `parent` when traced. */
    virtual void setup(std::uint32_t seed, Tracer *tracer,
                       int parent) = 0;
    /** Release what setup built before setup is repeated (untimed). */
    virtual void teardown() {}
    /** Return to the state a pass starts from (untimed). */
    virtual void reset() {}
    /** One pass over the inputs. With a tracer, the layers are
     *  called one at a time with a span around each. */
    virtual PassResult pass(Tracer *tracer, int parent) = 0;
    /** Independent checks of the most recent untraced pass. */
    virtual void check(Checker &checker) = 0;
    /** One line describing the inputs, printed before the result. */
    virtual std::string describe() const = 0;
    /** Whether a traced pass calls the layers one at a time, so its
     *  layer spans split the pass; otherwise one public call wraps
     *  the work and the traced run checks no coverage. */
    virtual bool layered() const { return false; }
};

std::unique_ptr<Workload> makeSuiteWorkload();
std::unique_ptr<Workload> makeBmcWorkload();
std::unique_ptr<Workload> makeMutationWorkload();
/** `workDir` holds the daemons' sockets and the warm daemon's store. */
std::unique_ptr<Workload> makeServiceWorkload(const std::string &workDir);

/** FNV-1a over a byte string. */
std::uint64_t fnv1a(const std::string &bytes);

/** Linear-interpolated quantile of `v` (q in [0, 1]); 0 if empty. */
double quantile(std::vector<double> v, double q);

/** Steady-clock time in seconds (arbitrary epoch). */
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
