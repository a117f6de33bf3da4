/**
 * @file
 * The `suite` and `bmc` workloads: litmus tests decided one at a time
 * on fixed designs, through core::runTest (untraced) or through the
 * layers runTest calls, one at a time (traced).
 */

#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "harness.hh"
#include "litmus/sc_ref.hh"
#include "litmus/suite.hh"
#include "litmus/synth.hh"
#include "litmus/tso_ref.hh"
#include "uspec/multivscale.hh"
#include "uspec/parser.hh"
#include "uspec/tso.hh"
#include "verdicts.hh"

namespace perfbench {

using namespace rtlcheck;

namespace {

enum class DesignKind { Fixed, Buggy, Tso };

const char *
designName(DesignKind d)
{
    switch (d) {
      case DesignKind::Fixed: return "fixed";
      case DesignKind::Buggy: return "buggy";
      case DesignKind::Tso: return "tso";
    }
    return "?";
}

/** One verdict: a test decided on one design under one config. */
struct Cell
{
    const litmus::Test *test = nullptr;
    DesignKind design = DesignKind::Fixed;
    core::RunOptions options; ///< graphCache is set per pass
};

/** runTest, called layer by layer with a span around each call. */
core::TestRun
runTraced(const litmus::Test &test, const uspec::Model &model,
          const core::RunOptions &options, Tracer *tracer, int parent,
          std::int64_t verdict)
{
    core::TestRun run;
    run.testName = test.name;

    vscale::Program program;
    rtl::Design design;
    {
        Scope s(tracer, "vscale.build", parent, verdict);
        program = vscale::lower(test);
        if (options.pipeline == core::Pipeline::StoreBuffer)
            vscale::buildTsoSoc(design, program);
        else
            vscale::buildSoc(design, program, options.variant);
    }

    sva::PredicateTable preds;
    core::AssumptionSet assumptions;
    std::vector<sva::Property> properties;
    {
        Scope s(tracer, "rtlcheck.gen", parent, verdict);
        core::VscaleNodeMapping mapping(design, preds, program);
        assumptions =
            core::generateAssumptions(design, preds, program, mapping);
        properties = core::generateAssertions(model, test, mapping,
                                              preds, options.encoding);
        run.svaAssumptions = assumptions.allSvaText();
        for (const sva::Property &p : properties)
            run.svaAssertions.push_back(p.svaText);
        run.numProperties = static_cast<int>(properties.size());
    }

    std::unique_ptr<rtl::Netlist> netlist;
    {
        Scope s(tracer, "rtl.elab", parent, verdict);
        rtl::NetlistOptions nopts;
        nopts.enable = options.optimizeNetlist;
        if (options.optimizeNetlist) {
            nopts.coneOfInfluence = true;
            for (int i = 0; i < preds.size(); ++i)
                nopts.keepSignals.push_back(preds.signalOf(i));
        }
        netlist = std::make_unique<rtl::Netlist>(design, nopts);
        run.netlistStats = netlist->optStats();
    }

    std::vector<formal::Assumption> resolved;
    {
        Scope s(tracer, "rtlcheck.resolve", parent, verdict);
        resolved = assumptions.resolve(*netlist);
    }

    {
        Scope s(tracer, "formal.verify", parent, verdict);
        run.verify = formal::verify(*netlist, preds, resolved,
                                    properties, options.config,
                                    options.graphCache);
    }
    return run;
}

/** Shared shape of `suite` and `bmc`. */
class CellWorkload : public Workload
{
  public:
    bool layered() const override { return true; }

    PassResult pass(Tracer *tracer, int parent) override
    {
        // One GraphCache per design per pass, as one `rtlcheck_cli
        // --all` invocation uses it: a pass never inherits graphs.
        std::map<DesignKind, std::unique_ptr<formal::GraphCache>> caches;
        if (_useCache)
            for (DesignKind d :
                 {DesignKind::Fixed, DesignKind::Buggy, DesignKind::Tso})
                caches[d] = std::make_unique<formal::GraphCache>();

        PassResult r;
        std::vector<core::TestRun> runs(_cells.size());
        for (std::size_t i = 0; i < _cells.size(); ++i) {
            const Cell &c = _cells[i];
            core::RunOptions o = c.options;
            o.graphCache = _useCache ? caches[c.design].get() : nullptr;
            const uspec::Model &model = modelOf(c.design);
            const double t0 = nowSeconds();
            if (tracer) {
                Scope v(tracer, "verdict", parent,
                        static_cast<std::int64_t>(i));
                runs[i] = runTraced(*c.test, model, o, tracer, v.id(),
                                    static_cast<std::int64_t>(i));
            } else {
                runs[i] = core::runTest(*c.test, model, o);
            }
            r.verdictMs.push_back((nowSeconds() - t0) * 1e3);
        }

        double props = 0, removed = 0, explore = 0, checkMs = 0,
               nodes = 0, product = 0, vars = 0, clauses = 0,
               solves = 0, conflicts = 0, reuse = 0;
        for (const core::TestRun &run : runs) {
            const formal::VerifyResult &v = run.verify;
            r.digests.push_back(verdictDigest(run));
            props += run.numProperties;
            removed += static_cast<double>(run.netlistStats.removed());
            explore += v.exploreSeconds * 1e3;
            checkMs += v.checkSeconds * 1e3;
            nodes += static_cast<double>(v.graphNodes);
            for (const formal::PropertyResult &p : v.properties)
                product += static_cast<double>(p.productStates);
            vars += static_cast<double>(v.satVars);
            clauses += static_cast<double>(v.satClauses);
            solves += static_cast<double>(v.satSolves);
            conflicts += static_cast<double>(v.satConflicts);
            reuse += static_cast<double>(v.satLearnedReuse);
        }
        double hits = 0, bytes = 0;
        for (auto &[d, cache] : caches) {
            formal::GraphCache::Stats s = cache->stats();
            hits += static_cast<double>(s.hits);
            bytes += static_cast<double>(s.bytesCached);
        }
        r.layer = {{"rtlcheck.properties", props},
                   {"rtl.nodes_removed", removed},
                   {"formal.explore_ms", explore},
                   {"formal.check_ms", checkMs},
                   {"formal.graph_nodes", nodes},
                   {"formal.product_states", product},
                   {"formal.cache_hits", hits},
                   {"formal.cache_mib", bytes / (1024.0 * 1024.0)},
                   {"sat.vars", vars},
                   {"sat.clauses", clauses},
                   {"sat.solves", solves},
                   {"sat.conflicts", conflicts},
                   {"sat.learned_reuse", reuse}};
        if (!tracer)
            _lastRuns = std::move(runs);
        return r;
    }

    void check(Checker &checker) override
    {
        std::set<std::string> tsoReached, tsoObservable;
        std::size_t buggyViolations = 0, buggyCells = 0;
        bool mpViolated = false;
        for (std::size_t i = 0; i < _cells.size(); ++i) {
            const Cell &c = _cells[i];
            const core::TestRun &run = _lastRuns[i];
            const formal::VerifyResult &v = run.verify;
            const std::string where =
                std::string(designName(c.design)) + "/" + c.test->name;
            const formal::PropertyResult *bad = firstFalsified(run);
            switch (c.design) {
              case DesignKind::Fixed:
                checker.expect(
                    !litmus::ScExecutor(*c.test).outcomeObservable(),
                    where + ": ScExecutor marks the outcome forbidden");
                checker.expect(!v.coverReached,
                               where + ": SC design reaches no cover");
                checker.expect(!bad,
                               where + ": SC design falsifies no axiom");
                break;
              case DesignKind::Tso:
                if (v.coverReached)
                    tsoReached.insert(c.test->name);
                if (litmus::TsoExecutor(*c.test).outcomeObservable())
                    tsoObservable.insert(c.test->name);
                if (v.coverReached)
                    checker.expect(
                        v.coverWitness &&
                            core::witnessExhibitsOutcome(
                                *c.test, c.options, *v.coverWitness),
                        where + ": TSO cover witness replays");
                checker.expect(!bad,
                               where + ": TSO design falsifies no axiom");
                break;
              case DesignKind::Buggy:
                ++buggyCells;
                if (v.coverReached || bad) {
                    ++buggyViolations;
                    if (c.test->name == "mp")
                        mpViolated = true;
                }
                if (v.coverReached)
                    checker.expect(
                        v.coverWitness &&
                            core::witnessExhibitsOutcome(
                                *c.test, c.options, *v.coverWitness),
                        where + ": cover witness shows the outcome");
                for (const formal::PropertyResult &p : v.properties) {
                    if (p.status != formal::ProofStatus::Falsified)
                        continue;
                    checker.expect(
                        p.counterexample &&
                            assertionCexReplays(*c.test,
                                                modelOf(c.design),
                                                c.options, p.name,
                                                *p.counterexample),
                        where + ": counterexample of " + p.name +
                            " fails the trace checker");
                }
                break;
            }
        }
        if (_hasTso) {
            checker.expect(tsoReached == tsoObservable,
                           "TSO: reached covers equal the "
                           "TsoExecutor-observable set");
            std::printf("check: tso covers reached %zu, "
                        "TsoExecutor observable %zu\n",
                        tsoReached.size(), tsoObservable.size());
        }
        if (buggyCells) {
            checker.expect(mpViolated, "buggy/mp is violated (§7.1)");
            std::printf("check: buggy memory violated on %zu of %zu "
                        "tests\n",
                        buggyViolations, buggyCells);
        }
    }

  protected:
    const uspec::Model &modelOf(DesignKind d) const
    {
        return d == DesignKind::Tso ? *_tso : *_sc;
    }

    /** Parse both µspec models afresh (part of setup_s). */
    void buildModels(Tracer *tracer, int parent)
    {
        Scope s(tracer, "uspec.model", parent);
        _sc = std::make_unique<uspec::Model>(
            uspec::parseModel(uspec::multiVscaleSource()));
        _tso = std::make_unique<uspec::Model>(
            uspec::parseModel(uspec::tsoVscaleSource()));
    }

    void addCell(const litmus::Test &t, DesignKind d,
                 const formal::EngineConfig &config)
    {
        Cell c;
        c.test = &t;
        c.design = d;
        c.options.config = config;
        if (d == DesignKind::Buggy)
            c.options.variant = vscale::MemoryVariant::Buggy;
        if (d == DesignKind::Tso) {
            c.options.pipeline = core::Pipeline::StoreBuffer;
            _hasTso = true;
        }
        _cells.push_back(c);
    }

    std::unique_ptr<uspec::Model> _sc, _tso;
    std::vector<litmus::Test> _tests;
    std::vector<Cell> _cells;
    std::vector<core::TestRun> _lastRuns;
    bool _useCache = true;
    bool _hasTso = false;
};

/** Synthesized SC-forbidden tests per suite pass, drawn by the seed
 *  from the 16 shapes of cycles of at most 4 edges (all two-thread).
 *  Longer cycles add three- and four-thread tests whose exploration
 *  cost differs from seed to seed far more than the paper's cells. */
constexpr std::size_t kSynthBatch = 12;

class SuiteWorkload : public CellWorkload
{
  public:
    void setup(std::uint32_t seed, Tracer *tracer, int parent) override
    {
        _cells.clear();
        _hasTso = false;
        buildModels(tracer, parent);
        _tests = litmus::standardSuite();
        {
            Scope s(tracer, "litmus.synth", parent);
            litmus::synth::SynthOptions so;
            so.keep = litmus::synth::KeepFilter::ScForbidden;
            so.maxEdges = 4;
            so.budget = kSynthBatch;
            so.seed = seed;
            for (auto &st : litmus::synth::synthesize(so).tests)
                _tests.push_back(std::move(st.test));
        }
        _numPaper = litmus::standardSuite().size();
        const formal::EngineConfig full = formal::fullProofConfig();
        for (DesignKind d :
             {DesignKind::Fixed, DesignKind::Buggy, DesignKind::Tso})
            for (std::size_t i = 0; i < _numPaper; ++i)
                addCell(_tests[i], d, full);
        for (std::size_t i = _numPaper; i < _tests.size(); ++i)
            addCell(_tests[i], DesignKind::Fixed, full);
    }

    std::string describe() const override
    {
        return "suite: " + std::to_string(_numPaper) +
               " paper tests x {fixed, buggy, tso} + " +
               std::to_string(_tests.size() - _numPaper) +
               " synthesized SC-forbidden tests on fixed; Full_Proof, "
               "explicit engine, 1 lane, one GraphCache per design "
               "per pass";
    }

  private:
    std::size_t _numPaper = 0;
};

class BmcWorkload : public CellWorkload
{
  public:
    BmcWorkload() { _useCache = false; }

    void setup(std::uint32_t /*seed*/, Tracer *tracer,
               int parent) override
    {
        _cells.clear();
        buildModels(tracer, parent);
        _tests = litmus::standardSuite();
        formal::EngineConfig shallow = formal::fullProofConfig();
        shallow.backend = formal::Backend::Bmc;
        shallow.bmcDepth = 8;
        shallow.inductionDepth = 0;
        formal::EngineConfig deep = shallow;
        deep.bmcDepth = 32;
        for (DesignKind d : {DesignKind::Fixed, DesignKind::Buggy})
            for (const litmus::Test &t : _tests)
                if (inSlice(t))
                    addCell(t, d, shallow);
        for (const litmus::Test &t : _tests)
            if (t.name == "lb")
                addCell(t, DesignKind::Fixed, deep);
    }

    std::string describe() const override
    {
        return "bmc: " + std::to_string(_cells.size() - 1) +
               " cells (paper tests of at most 4 instructions x "
               "{fixed, buggy}) at depth 8, induction 0, + lb on fixed "
               "at depth 32; inputs do not depend on the seed";
    }

  private:
    /** The slice: every paper test of at most four instructions
     *  (17 tests, mp among them). Longer tests take up to 6 s each
     *  at depth 8, so the whole suite does not fit in a run. */
    static bool inSlice(const litmus::Test &t)
    {
        return t.numInstrs() <= 4;
    }
};

} // namespace

std::unique_ptr<Workload>
makeSuiteWorkload()
{
    return std::make_unique<SuiteWorkload>();
}

std::unique_ptr<Workload>
makeBmcWorkload()
{
    return std::make_unique<BmcWorkload>();
}

} // namespace perfbench
