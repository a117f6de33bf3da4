/**
 * @file
 * The `mutation` workload: core::runMutationCampaign on the fixed
 * design at one lane with the campaign's default portfolio engine,
 * over a fixed, decidable mutant sample. A verdict is one mutant's
 * fate.
 */

#include <cstdio>
#include <set>

#include "harness.hh"
#include "litmus/suite.hh"
#include "rtlcheck/mutation_campaign.hh"
#include "uspec/multivscale.hh"
#include "uspec/parser.hh"
#include "verdicts.hh"

namespace perfbench {

using namespace rtlcheck;

namespace {

/** The campaign's tests: the four classic two-thread shapes. */
const char *const kTests[] = {"mp", "sb", "lb", "co-mp"};

/**
 * Mutants whose campaign over the 16 two-thread paper tests of at most
 * four instructions does not finish within 10 s: the mutant breaks the
 * memory handshake or the fetch path so that its reachable state space
 * under Full_Proof exploration is unbounded in practice (or, for
 * `stuck-at-1 @ mem.dphase_valid`, takes 9.4 s even on the four
 * campaign tests). A workload that must decide fully leaves them out;
 * README.md lists them.
 */
const std::set<std::string> kUndecided = {
    "stuck-at-0 @ mem.dphase_valid", "stuck-at-0 @ mem.dphase_load",
    "stuck-at-1 @ mem.dphase_valid", "stuck-at-1 @ mem.dphase_load",
    "stuck-at-0 @ node 66",          "stuck-at-0 @ node 174",
    "stuck-at-0 @ node 282",         "stuck-at-0 @ node 390",
    "mux-arm-swap @ node 25",        "mux-arm-swap @ node 69",
    "mux-arm-swap @ node 133",       "mux-arm-swap @ node 177",
    "mux-arm-swap @ node 241",       "mux-arm-swap @ node 285",
    "mux-arm-swap @ node 349",       "mux-arm-swap @ node 393",
    "const-off-by-one @ node 27",    "const-off-by-one @ node 135",
    "const-off-by-one @ node 243",   "const-off-by-one @ node 351",
};

/** The sample is rtl::enumerateMutations' own seeded draw at a fixed
 *  budget and seed, in enumeration order, whatever the benchmark seed.
 *  A seed-drawn sample changes the fate and cost mix, and a seed-drawn
 *  order changes which mutant pays for each test's miter session, by
 *  more than the benchmark's bounds (see README.md). */
constexpr std::size_t kSampleBudget = 40;
constexpr std::uint32_t kSampleSeed = 7;

/** Killed, but the campaign could not replay the killing witness. */
bool
unreplayedKill(const core::MutantReport &m)
{
    return m.fate == core::MutantFate::Killed &&
           !m.kills.front().witnessReplayed;
}

class MutationWorkload : public Workload
{
  public:
    void setup(std::uint32_t /*seed*/, Tracer *tracer,
               int parent) override
    {
        {
            Scope s(tracer, "uspec.model", parent);
            _model = std::make_unique<uspec::Model>(
                uspec::parseModel(uspec::multiVscaleSource()));
        }
        _tests.clear();
        for (const char *name : kTests)
            _tests.push_back(litmus::suiteTest(name));

        std::vector<rtl::Mutation> all;
        {
            Scope s(tracer, "rtl.mutate", parent);
            rtl::Design bare;
            vscale::buildSoc(bare, vscale::lower(_tests[0]),
                             vscale::MemoryVariant::Fixed);
            rtl::MutateOptions options;
            options.budget = kSampleBudget;
            options.seed = kSampleSeed;
            all = rtl::enumerateMutations(bare, options);
        }

        _sample.clear();
        for (const rtl::Mutation &m : all)
            if (!kUndecided.count(m.describe()))
                _sample.push_back(m);
    }

    PassResult pass(Tracer *tracer, int parent) override
    {
        core::MutationCampaignOptions mo;
        mo.run.config.backend = formal::Backend::Portfolio;
        mo.run.config.earlyFalsify = true;
        mo.jobs = 1;
        mo.mutations = _sample;
        formal::GraphCache cache; // fresh per pass: no inherited graphs
        mo.run.graphCache = &cache;

        core::CampaignReport report;
        {
            Scope s(tracer, "rtlcheck.campaign", parent);
            report = core::runMutationCampaign(*_model, _tests, mo);
        }

        PassResult r;
        double miterMs = 0, pruned = 0, verifications = 0;
        for (const core::MutantReport &m : report.mutants) {
            // A kill whose witness does not replay on the mutant's
            // simulator is not a verdict the campaign can stand by.
            // The campaign is one call, so a mutant's time is the
            // campaign's own MutantReport::seconds, not a time taken
            // on the benchmark's clock: it includes the share of each
            // test's miter session the campaign charges to it.
            if (unreplayedKill(m))
                ++r.failed;
            else
                r.verdictMs.push_back(m.seconds * 1e3);
            std::string d = m.mutation.key() + '\x1f' +
                            core::mutantFateName(m.fate);
            for (const core::KillCell &k : m.kills)
                d += '\x1f' + k.testName;
            r.digests.push_back(fnv1a(d));
            miterMs += m.miterSeconds * 1e3;
            pruned += static_cast<double>(m.testsSkippedEquivalent);
            verifications += static_cast<double>(m.testsRun);
        }
        const double killed = static_cast<double>(report.numKilled());
        r.layer = {{"formal.miter_ms", miterMs},
                   {"formal.miter_conflicts",
                    static_cast<double>(report.miterConflicts)},
                   {"formal.miter_pruned", pruned},
                   {"campaign.verifications", verifications},
                   {"campaign.kills_per_verification",
                    verifications ? killed / verifications : 0.0}};
        if (tracer)
            std::printf("trace: campaign killed %zu, survived %zu, "
                        "equivalent %zu over %.0f verifications\n",
                        report.numKilled(), report.numSurvived(),
                        report.numEquivalent(), verifications);
        else
            _last = std::move(report);
        return r;
    }

    void check(Checker &checker) override
    {
        // Re-verify every kill independently and replay its witness:
        // it must show the outcome (or fail the assertion) on the
        // mutant's simulator and not on the pristine design.
        for (const core::MutantReport &m : _last.mutants) {
            if (m.fate != core::MutantFate::Killed)
                continue;
            const core::KillCell &cell = m.kills.front();
            const std::string where =
                m.mutation.describe() + " on " + cell.testName;
            if (unreplayedKill(m)) {
                std::printf("check: known fault, counted as failed: %s: "
                            "the kill's cover witness does not replay\n",
                            where.c_str());
                continue;
            }
            const litmus::Test &test = litmus::suiteTest(cell.testName);
            core::RunOptions pristine;
            pristine.config.backend = formal::Backend::Portfolio;
            core::RunOptions mutant = pristine;
            const rtl::Mutation mutation = m.mutation;
            mutant.designPatch = [mutation](rtl::Design &d) {
                d = rtl::applyMutation(d, mutation);
            };
            core::TestRun run = core::runTest(test, *_model, mutant);
            const formal::PropertyResult *bad = firstFalsified(run);
            if (run.verify.coverReached && run.verify.coverWitness) {
                const formal::WitnessTrace &w = *run.verify.coverWitness;
                checker.expect(
                    core::witnessExhibitsOutcome(test, mutant, w),
                    where + ": witness shows the outcome on the mutant");
                checker.expect(
                    !core::witnessExhibitsOutcome(test, pristine, w),
                    where + ": witness does not show the outcome on "
                            "the pristine design");
            } else if (bad && bad->counterexample) {
                const formal::WitnessTrace &w = *bad->counterexample;
                checker.expect(
                    assertionCexReplays(test, *_model, mutant, bad->name,
                                        w),
                    where + ": counterexample fails " + bad->name +
                        " on the mutant");
                checker.expect(
                    !assertionCexReplays(test, *_model, pristine,
                                         bad->name, w),
                    where + ": counterexample does not fail " +
                        bad->name + " on the pristine design");
            } else {
                checker.expect(false,
                               where + ": re-verification finds a "
                                       "witness");
            }
        }
        std::printf("check: sample of %zu mutants: %zu killed, %zu "
                    "survived, %zu equivalent\n",
                    _last.mutants.size(), _last.numKilled(),
                    _last.numSurvived(), _last.numEquivalent());
    }

    std::string describe() const override
    {
        return "mutation: " + std::to_string(_sample.size()) +
               " decidable mutants of the budget-" +
               std::to_string(kSampleBudget) + " sample at seed " +
               std::to_string(kSampleSeed) +
               ", fixed design x tests mp, sb, lb, co-mp; portfolio "
               "engine, 1 lane; inputs do not depend on the seed";
    }

  private:
    std::unique_ptr<uspec::Model> _model;
    std::vector<litmus::Test> _tests;
    std::vector<rtl::Mutation> _sample;
    core::CampaignReport _last;
};

} // namespace

std::unique_ptr<Workload>
makeMutationWorkload()
{
    return std::make_unique<MutationWorkload>();
}

} // namespace perfbench
