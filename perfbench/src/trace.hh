/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The traced run times calls into each module's public functions
 * from the benchmark's own code; nothing under src/ is instrumented.
 * A span has a name ("<layer>.<what>", or a bare harness name such as
 * "pass" or "verdict"), a start and end on one steady clock, the span
 * that caused it, and the verdict it belongs to. Spans stay in memory
 * and are written out once, when the run ends.
 *
 * A span's self time is its duration minus the union of its direct
 * children's intervals, so concurrent children (the service
 * workload's client threads) are not double-counted against their
 * parent.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the tracer was made
    double end = 0.0;
    int parent = -1;
    std::int64_t verdict = -1;
};

class Tracer
{
  public:
    Tracer();

    /** Open a span; thread-safe. Returns its id. */
    int begin(const std::string &name, int parent,
              std::int64_t verdict = -1);
    void end(int id);

    std::vector<Span> spans() const;

    /** Self time of every span, indexed like spans(). */
    static std::vector<double> selfTimes(const std::vector<Span> &spans);

    /** Layer of a span name: the text before the first '.', or
     *  "harness" for a bare name. */
    static std::string layerOf(const std::string &name);

  private:
    using Clock = std::chrono::steady_clock;

    double now() const;

    Clock::time_point _t0;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/** RAII span; a no-op when the tracer is null (untraced passes). */
class Scope
{
  public:
    Scope(Tracer *tracer, const std::string &name, int parent,
          std::int64_t verdict = -1)
        : _tracer(tracer),
          _id(tracer ? tracer->begin(name, parent, verdict) : -1)
    {
    }
    ~Scope()
    {
        if (_tracer)
            _tracer->end(_id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return _id; }

  private:
    Tracer *_tracer;
    int _id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
