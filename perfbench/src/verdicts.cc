#include "verdicts.hh"

#include "harness.hh"
#include "rtl/simulator.hh"
#include "sva/trace_checker.hh"

namespace perfbench {

using namespace rtlcheck;

namespace {

void
put(std::string &out, std::uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

void
putTrace(std::string &out,
         const std::optional<formal::WitnessTrace> &trace)
{
    put(out, trace ? trace->inputs.size() + 1 : 0);
    if (trace)
        out.append(trace->inputs.begin(), trace->inputs.end());
}

} // namespace

std::uint64_t
verdictDigest(const core::TestRun &run)
{
    const formal::VerifyResult &v = run.verify;
    std::string s = run.testName;
    put(s, v.coverUnreachable);
    put(s, v.coverReached);
    putTrace(s, v.coverWitness);
    put(s, v.graphNodes);
    put(s, v.graphEdges);
    put(s, v.graphComplete);
    put(s, v.graphDepth);
    put(s, v.satVars);
    put(s, v.satClauses);
    put(s, static_cast<std::uint64_t>(run.numProperties));
    put(s, run.netlistStats.removed());
    for (const formal::PropertyResult &p : v.properties) {
        s += p.name;
        put(s, static_cast<std::uint64_t>(p.status));
        put(s, p.boundCycles);
        put(s, p.productStates);
        put(s, p.inductionK);
        putTrace(s, p.counterexample);
    }
    return fnv1a(s);
}

bool
assertionCexReplays(const litmus::Test &test, const uspec::Model &model,
                    const core::RunOptions &options,
                    const std::string &property,
                    const formal::WitnessTrace &trace)
{
    core::PreparedTest prep = core::prepareTest(test, model, options);
    const sva::Property *prop = nullptr;
    for (const sva::Property &p : prep.properties)
        if (p.name == property)
            prop = &p;
    if (!prop)
        return false;

    // The unoptimized netlist keeps every predicate signal.
    rtl::Netlist netlist(prep.design);
    std::vector<std::pair<std::size_t, std::uint32_t>> pins;
    for (const formal::Assumption &a : prep.assumptions.resolve(netlist))
        if (a.kind == formal::Assumption::Kind::InitialPin)
            pins.push_back({a.stateSlot, a.value});

    rtl::Simulator sim(netlist);
    sim.resetWith(pins);
    sva::Trace preds;
    for (std::uint8_t combo : trace.inputs) {
        rtl::InputVec inputs(netlist.numInputs());
        unsigned shift = 0;
        for (std::size_t i = 0; i < netlist.numInputs(); ++i) {
            unsigned width = netlist.inputs()[i].width;
            inputs[i] = (combo >> shift) & ((1u << width) - 1);
            shift += width;
        }
        sim.step(inputs);
        sva::PredMask mask{};
        for (int p = 0; p < prep.preds.size(); ++p)
            if (sim.lastValue(prep.preds.signalOf(p)))
                mask[static_cast<std::size_t>(p) / 64] |=
                    std::uint64_t(1) << (p % 64);
        preds.push_back(mask);
    }
    return sva::checkFireOnce(*prop, preds) == sva::Tri::Failed;
}

const formal::PropertyResult *
firstFalsified(const core::TestRun &run)
{
    for (const formal::PropertyResult &p : run.verify.properties)
        if (p.status == formal::ProofStatus::Falsified)
            return &p;
    return nullptr;
}

} // namespace perfbench
