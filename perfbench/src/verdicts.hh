/**
 * @file
 * Verdict digests and the replay oracles the independent checks use.
 *
 * The oracles share nothing with the generated SVA's evaluation in
 * the engine: cover witnesses are replayed on the RTL simulator and
 * compared with the litmus outcome (core::witnessExhibitsOutcome),
 * and assertion counterexamples are replayed on the simulator and
 * re-checked by the sva trace checker over the simulated predicate
 * trace.
 */

#ifndef PERFBENCH_VERDICTS_HH
#define PERFBENCH_VERDICTS_HH

#include <cstdint>
#include <string>

#include "rtlcheck/runner.hh"

namespace perfbench {

/** Digest of every verdict-bearing field of a run: cover status and
 *  witness, per-property status, bound, counterexample and product
 *  size, graph shape, SAT encoding size. Timing fields and
 *  cache/store provenance are left out. */
std::uint64_t verdictDigest(const rtlcheck::core::TestRun &run);

/** Replay `trace` on the design `options` describes and report
 *  whether the assertion named `property` fails on the simulated
 *  predicate trace (sva::checkFireOnce). */
bool assertionCexReplays(const rtlcheck::litmus::Test &test,
                         const rtlcheck::uspec::Model &model,
                         const rtlcheck::core::RunOptions &options,
                         const std::string &property,
                         const rtlcheck::formal::WitnessTrace &trace);

/** The first falsified property of a run, or nullptr. */
const rtlcheck::formal::PropertyResult *
firstFalsified(const rtlcheck::core::TestRun &run);

} // namespace perfbench

#endif // PERFBENCH_VERDICTS_HH
