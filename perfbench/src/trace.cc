#include "trace.hh"

#include <algorithm>

namespace perfbench {

Tracer::Tracer() : _t0(Clock::now()) {}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - _t0).count();
}

int
Tracer::begin(const std::string &name, int parent, std::int64_t verdict)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back({name, t, t, parent, verdict});
    return static_cast<int>(_spans.size()) - 1;
}

void
Tracer::end(int id)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

std::vector<double>
Tracer::selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.start, s.end});

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (auto [a, b] : iv) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        self[i] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

std::string
Tracer::layerOf(const std::string &name)
{
    std::size_t dot = name.find('.');
    return dot == std::string::npos ? "harness" : name.substr(0, dot);
}

} // namespace perfbench
