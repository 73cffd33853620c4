// Warm re-exploration (DESIGN.md §12): checkpoint capture on budget-bound
// runs, resume determinism (a resumed run must reach the exact verdict and
// state counts a cold run reaches, and render a byte-identical canonical
// result object), corruption fallback, refusal of a checkpoint captured
// from another translation, and the versa-level serialize/restore round
// trip.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "aadl/parser.hpp"
#include "core/analyzer.hpp"
#include "core/result_json.hpp"
#include "translate/translator.hpp"
#include "util/hash.hpp"
#include "versa/checkpoint.hpp"

namespace {

using namespace aadlsched;

// --- fixtures -----------------------------------------------------------

/// Three rate-monotonic threads with execution-time ranges (so the space
/// branches): 106 states cold, schedulable. Small enough for tight loops,
/// big enough that a 40-state budget truncates mid-space.
std::string medium_model() {
  return R"(package Med
public
  processor CPU
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end CPU;
  thread T1
  end T1;
  thread implementation T1.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 5 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Deadline => 5 ms;
  end T1.impl;
  thread T2
  end T2;
  thread implementation T2.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 2 ms .. 3 ms;
    Deadline => 10 ms;
  end T2.impl;
  thread T3
  end T3;
  thread implementation T3.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 20 ms;
    Compute_Execution_Time => 3 ms .. 5 ms;
    Deadline => 20 ms;
  end T3.impl;
  system App
  end App;
  system implementation App.impl
  subcomponents
    t1 : thread T1.impl;
    t2 : thread T2.impl;
    t3 : thread T3.impl;
  end App.impl;
  system Root
  end Root;
  system implementation Root.impl
  subcomponents
    app : system App.impl;
    cpu : processor CPU;
  properties
    Actual_Processor_Binding => reference (cpu) applies to app;
  end Root.impl;
end Med;
)";
}

/// One overloaded thread: a deadline violation (deadlock) is reachable.
std::string failing_model() {
  return R"(package Bad
public
  processor CPU
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end CPU;
  thread T
  end T;
  thread implementation T.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 12 ms .. 12 ms;
    Deadline => 10 ms;
  end T.impl;
  system App
  end App;
  system implementation App.impl
  subcomponents
    t : thread T.impl;
  end App.impl;
  system Root
  end Root;
  system implementation Root.impl
  subcomponents
    app : system App.impl;
    cpu : processor CPU;
  properties
    Actual_Processor_Binding => reference (cpu) applies to app;
  end Root.impl;
end Bad;
)";
}

core::AnalyzerOptions base_options() {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;  // the CLI's 1 ms default
  opts.run_lint = false;  // the verdict must come from exploration
  return opts;
}

/// What a resuming caller holds before it restores a checkpoint: its own
/// fresh translation of `source` (root Root.impl) at the base quantum.
struct Fresh {
  acsr::Context ctx;
  acsr::TermId initial = acsr::kInvalidTerm;
};

std::unique_ptr<Fresh> translate_fresh(const std::string& source) {
  auto out = std::make_unique<Fresh>();
  util::DiagnosticEngine diags("<test>");
  aadl::Model model;
  if (!aadl::parse_aadl(model, source, diags)) return out;
  const auto instance = aadl::instantiate(model, "Root.impl", diags);
  if (!instance) return out;
  const auto tr = translate::translate(out->ctx, *instance, diags,
                                       base_options().translation);
  if (tr) out->initial = tr->initial;
  return out;
}

/// `explore_ms` is the one canonical-result field that legitimately differs
/// between two runs of the same analysis; everything else must be
/// byte-identical.
std::string normalize_explore_ms(std::string json) {
  const std::string key = "\"explore_ms\": ";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return json;
  const std::size_t start = pos + key.size();
  std::size_t end = start;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(0, start).append("X").append(json, end);
}

// --- capture ------------------------------------------------------------

TEST(Checkpoint, BudgetBoundRunCapturesACheckpoint) {
  core::AnalyzerOptions opts = base_options();
  opts.exploration.max_states = 40;
  std::string blob;
  opts.checkpoint_out = &blob;

  const auto r = core::analyze_source(medium_model(), "Root.impl", opts);
  ASSERT_NE(r.outcome, core::Outcome::Error);
  EXPECT_EQ(r.outcome, core::Outcome::Inconclusive);
  EXPECT_EQ(r.stop_reason, util::StopReason::MaxStates);
  EXPECT_TRUE(r.stats.checkpoint_captured);
  EXPECT_FALSE(blob.empty());
  EXPECT_EQ(blob.rfind("aadlsched-checkpoint v5", 0), 0u);
  EXPECT_NE(r.summary().find("checkpoint captured at depth"),
            std::string::npos);
}

TEST(Checkpoint, ConclusiveRunCapturesNothing) {
  core::AnalyzerOptions opts = base_options();
  std::string blob;
  opts.checkpoint_out = &blob;

  const auto r = core::analyze_source(medium_model(), "Root.impl", opts);
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
  EXPECT_FALSE(r.stats.checkpoint_captured);
  EXPECT_TRUE(blob.empty());
}

TEST(Checkpoint, DeadlockedRunCapturesNothing) {
  core::AnalyzerOptions opts = base_options();
  std::string blob;
  opts.checkpoint_out = &blob;

  const auto r = core::analyze_source(failing_model(), "Root.impl", opts);
  EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable);  // conclusive
  EXPECT_FALSE(r.stats.checkpoint_captured);
  EXPECT_TRUE(blob.empty());
}

// --- resume determinism -------------------------------------------------

TEST(Checkpoint, ResumedVerdictIsByteIdenticalToCold) {
  const auto cold =
      core::analyze_source(medium_model(), "Root.impl", base_options());
  ASSERT_EQ(cold.outcome, core::Outcome::Schedulable);

  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                  .stats.checkpoint_captured);

  core::AnalyzerOptions warm = base_options();
  warm.resume_checkpoint = &blob;
  const auto resumed = core::analyze_source(medium_model(), "Root.impl", warm);

  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_GT(resumed.stats.resumed_from_depth, 0u);
  EXPECT_EQ(resumed.stats.resumed_from_states, 40u);
  EXPECT_NE(resumed.summary().find("resumed from depth"), std::string::npos);

  // The acceptance bar: verdict, counts and the whole canonical result
  // object match the cold run exactly (explore_ms aside).
  EXPECT_EQ(resumed.outcome, cold.outcome);
  EXPECT_EQ(resumed.states, cold.states);
  EXPECT_EQ(resumed.transitions, cold.transitions);
  EXPECT_EQ(resumed.depth, cold.depth);
  EXPECT_EQ(normalize_explore_ms(core::render_result_json(resumed)),
            normalize_explore_ms(core::render_result_json(cold)));
}

TEST(Checkpoint, ChainedResumesConverge) {
  const auto cold =
      core::analyze_source(medium_model(), "Root.impl", base_options());

  // Chip away at the space in three installments; each bound run resumes
  // the previous checkpoint and re-captures at its own budget.
  std::string blob;
  std::uint64_t budget = 30;
  for (int round = 0; round < 2; ++round, budget += 30) {
    core::AnalyzerOptions opts = base_options();
    opts.exploration.max_states = budget;
    std::string next;
    opts.checkpoint_out = &next;
    std::string prev = blob;  // keep alive across the run
    if (!prev.empty()) opts.resume_checkpoint = &prev;
    const auto r = core::analyze_source(medium_model(), "Root.impl", opts);
    ASSERT_EQ(r.outcome, core::Outcome::Inconclusive);
    ASSERT_TRUE(r.stats.checkpoint_captured);
    if (round > 0) {
      EXPECT_TRUE(r.stats.resumed);
    }
    blob = next;
  }

  core::AnalyzerOptions final_opts = base_options();
  final_opts.resume_checkpoint = &blob;
  const auto last =
      core::analyze_source(medium_model(), "Root.impl", final_opts);
  EXPECT_TRUE(last.stats.resumed);
  EXPECT_EQ(last.stats.resumed_from_states, 60u);
  EXPECT_EQ(last.outcome, cold.outcome);
  EXPECT_EQ(last.states, cold.states);
  EXPECT_EQ(last.transitions, cold.transitions);
  EXPECT_EQ(last.depth, cold.depth);
}

TEST(Checkpoint, ResumeFindsDeadlockBeyondTheOldBudget) {
  // The failing model deadlocks within a handful of states; bound the first
  // run below that, then resume — the violation must still be found.
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 2;
  std::string blob;
  bound.checkpoint_out = &blob;
  const auto first =
      core::analyze_source(failing_model(), "Root.impl", bound);
  ASSERT_EQ(first.outcome, core::Outcome::Inconclusive);
  ASSERT_FALSE(blob.empty());

  core::AnalyzerOptions warm = base_options();
  warm.resume_checkpoint = &blob;
  const auto resumed =
      core::analyze_source(failing_model(), "Root.impl", warm);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.outcome, core::Outcome::NotSchedulable);
  // A resumed run has no trace prefix (the parents predate the resume), so
  // the counterexample timeline is unavailable — but the verdict stands.
  EXPECT_FALSE(resumed.scenario.has_value());
}

// --- level-boundary wavefronts -------------------------------------------

TEST(Checkpoint, LevelBoundaryWavefrontResumesToTheColdBytes) {
  // A stop that falls exactly on a BFS level boundary leaves an empty
  // `frontier` and the whole next level in `next_frontier`. Older
  // level-synchronous runs wrote every level-boundary stop that way, and
  // such .ckpt files may still sit in a shared cache dir. Find a state cap
  // at which the engine also stops on a boundary, then resume it.
  const auto cold =
      core::analyze_source(medium_model(), "Root.impl", base_options());
  ASSERT_EQ(cold.outcome, core::Outcome::Schedulable);

  std::string blob;
  for (std::uint64_t cap = 2; cap < cold.states && blob.empty(); ++cap) {
    core::AnalyzerOptions bound = base_options();
    bound.exploration.max_states = cap;
    std::string candidate;
    bound.checkpoint_out = &candidate;
    ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                    .stats.checkpoint_captured)
        << "cap " << cap;
    std::string error;
    const auto fresh = translate_fresh(medium_model());
    const auto restored =
        versa::parse_checkpoint(fresh->ctx, fresh->initial, candidate, error);
    ASSERT_TRUE(restored.has_value()) << error;
    if (restored->frontier.empty()) {
      ASSERT_FALSE(restored->next_frontier.empty());
      blob = std::move(candidate);
    }
  }
  ASSERT_FALSE(blob.empty()) << "no state cap stops on a level boundary";

  core::AnalyzerOptions warm = base_options();
  warm.resume_checkpoint = &blob;
  const auto resumed = core::analyze_source(medium_model(), "Root.impl", warm);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(normalize_explore_ms(core::render_result_json(resumed)),
            normalize_explore_ms(core::render_result_json(cold)));
}

// --- corruption fallback ------------------------------------------------

TEST(Checkpoint, CorruptBlobFallsBackToAColdRun) {
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                  .stats.checkpoint_captured);

  std::string corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x20;  // flip one payload bit

  core::AnalyzerOptions warm = base_options();
  warm.resume_checkpoint = &corrupt;
  const auto r = core::analyze_source(medium_model(), "Root.impl", warm);
  EXPECT_FALSE(r.stats.resumed);  // fell back
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);  // cold run still decides
  EXPECT_NE(r.diagnostics.find("checkpoint rejected"), std::string::npos);
  EXPECT_NE(r.diagnostics.find("falling back to a cold run"),
            std::string::npos);
  // The rejected blob leaves no trace: the fallback is a plain cold run.
  const auto cold =
      core::analyze_source(medium_model(), "Root.impl", base_options());
  EXPECT_EQ(normalize_explore_ms(core::render_result_json(r)),
            normalize_explore_ms(core::render_result_json(cold)));
}

TEST(Checkpoint, ResumeRefusesAnotherTranslation) {
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                  .stats.checkpoint_captured);

  // Another model: the answer is the named model's, never the blob's.
  core::AnalyzerOptions warm = base_options();
  warm.resume_checkpoint = &blob;
  const auto other = core::analyze_source(failing_model(), "Root.impl", warm);
  EXPECT_FALSE(other.stats.resumed);
  EXPECT_EQ(other.outcome, core::Outcome::NotSchedulable);
  EXPECT_NE(other.diagnostics.find("checkpoint rejected"), std::string::npos);

  // The same model at another quantum is another translation too.
  core::AnalyzerOptions coarse = base_options();
  coarse.translation.quantum_ns = 2'000'000;
  const auto cold = core::analyze_source(medium_model(), "Root.impl", coarse);
  coarse.resume_checkpoint = &blob;
  const auto resumed =
      core::analyze_source(medium_model(), "Root.impl", coarse);
  EXPECT_FALSE(resumed.stats.resumed);
  EXPECT_EQ(normalize_explore_ms(core::render_result_json(resumed)),
            normalize_explore_ms(core::render_result_json(cold)));
}

TEST(Checkpoint, TruncatedAndGarbageBlobsFallBack) {
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                  .stats.checkpoint_captured);

  for (const std::string& bad :
       {blob.substr(0, blob.size() / 3), std::string("not a checkpoint"),
        std::string("aadlsched-checkpoint v1\nkey -\n")}) {
    core::AnalyzerOptions warm = base_options();
    warm.resume_checkpoint = &bad;
    const auto r = core::analyze_source(medium_model(), "Root.impl", warm);
    EXPECT_FALSE(r.stats.resumed);
    EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
  }
}

TEST(Checkpoint, StaleFormatsAreRejectedWithADiagnostic) {
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                  .stats.checkpoint_captured);

  // Retired tags: v1 predates the reduction section, v2 carried it, v3
  // still carried its own printed module, and v4 carried a deadlock count
  // and first deadlock that a captured wavefront never has.
  const auto cold =
      core::analyze_source(medium_model(), "Root.impl", base_options());
  for (const std::string tag : {"v1", "v2", "v3", "v4"}) {
    SCOPED_TRACE(tag);
    // Rewrite the header to the retired tag and re-seal the body, so the
    // only thing wrong with the blob is its format version.
    std::string stale = blob;
    const auto vpos = stale.find(" v5\n");
    ASSERT_NE(vpos, std::string::npos);
    stale.replace(vpos, 4, " " + tag + "\n");
    const auto dpos = stale.rfind("digest ");
    ASSERT_NE(dpos, std::string::npos);
    stale.erase(dpos);
    util::append_digest(stale);

    std::string error;
    const auto fresh = translate_fresh(medium_model());
    EXPECT_FALSE(versa::parse_checkpoint(fresh->ctx, fresh->initial, stale,
                                         error)
                     .has_value());
    EXPECT_NE(error.find("stale checkpoint format '" + tag + "'"),
              std::string::npos);

    core::AnalyzerOptions warm = base_options();
    warm.resume_checkpoint = &stale;
    const auto r = core::analyze_source(medium_model(), "Root.impl", warm);
    EXPECT_FALSE(r.stats.resumed);  // cold fallback, with the reason surfaced
    EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
    EXPECT_EQ(normalize_explore_ms(core::render_result_json(r)),
              normalize_explore_ms(core::render_result_json(cold)));
    EXPECT_NE(r.diagnostics.find("stale checkpoint format"),
              std::string::npos);
  }
}

// --- symbolic engine interplay (DESIGN.md §16) --------------------------

// Checkpoints serialize an enumerative BFS wavefront; the state-class
// engine has no such thing. Asking for one must produce a loud note and no
// artifact — never a silently empty blob a daemon would then cache.
TEST(Checkpoint, SymbolicRunRefusesToCheckpoint) {
  core::AnalyzerOptions opts = base_options();
  opts.engine = core::Engine::Symbolic;
  std::string blob;
  opts.checkpoint_out = &blob;

  const auto r = core::analyze_source(medium_model(), "Root.impl", opts);
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.engine, core::Engine::Symbolic);
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
  EXPECT_FALSE(r.stats.checkpoint_captured);
  EXPECT_TRUE(blob.empty());
  EXPECT_NE(
      r.diagnostics.find("checkpointing unsupported for symbolic engine"),
      std::string::npos);
}

TEST(Checkpoint, SymbolicRunIgnoresAValidEnumerativeCheckpoint) {
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                  .stats.checkpoint_captured);

  // The blob is perfectly valid — but an enumerative wavefront cannot seed
  // a class graph, so the symbolic engine runs cold and says so.
  core::AnalyzerOptions warm = base_options();
  warm.engine = core::Engine::Symbolic;
  warm.resume_checkpoint = &blob;
  const auto r = core::analyze_source(medium_model(), "Root.impl", warm);
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_FALSE(r.stats.resumed);
  EXPECT_EQ(r.engine, core::Engine::Symbolic);
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
  EXPECT_NE(r.diagnostics.find(
                "checkpoint resume is unsupported for the symbolic engine"),
            std::string::npos);
}

// --- versa-level round trip ---------------------------------------------

TEST(Checkpoint, VersaParseRoundTripPreservesTheWavefront) {
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  const auto r = core::analyze_source(medium_model(), "Root.impl", bound);
  ASSERT_TRUE(r.stats.checkpoint_captured);

  std::string error;
  const auto fresh = translate_fresh(medium_model());
  const auto restored =
      versa::parse_checkpoint(fresh->ctx, fresh->initial, blob, error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(restored->states, r.states);
  EXPECT_EQ(restored->transitions, r.transitions);
  EXPECT_EQ(restored->depth, r.depth);
  EXPECT_EQ(restored->visited.size(), r.states);
  EXPECT_FALSE(restored->empty());
  EXPECT_NE(restored->initial, acsr::kInvalidTerm);

  // Re-serializing the restored wavefront must restore again (the round
  // trip is closed, not merely one-way).
  const std::string again = versa::serialize_checkpoint(fresh->ctx, *restored);
  std::string error2;
  const auto other = translate_fresh(medium_model());
  const auto twice =
      versa::parse_checkpoint(other->ctx, other->initial, again, error2);
  ASSERT_TRUE(twice.has_value()) << error2;
  EXPECT_EQ(twice->states, restored->states);
  EXPECT_EQ(twice->visited.size(), restored->visited.size());
  EXPECT_EQ(twice->frontier.size(), restored->frontier.size());
  EXPECT_EQ(twice->next_frontier.size(), restored->next_frontier.size());
}

TEST(Checkpoint, RestoreChecksTheInitialStateAndEveryId) {
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                  .stats.checkpoint_captured);

  // Same translation, but the caller's initial state is another term.
  std::string error;
  const auto fresh = translate_fresh(medium_model());
  EXPECT_FALSE(
      versa::parse_checkpoint(fresh->ctx, acsr::kNil, blob, error).has_value());
  EXPECT_NE(error.find("initial state differs"), std::string::npos);

  // A resealed blob whose initial index points past the term table.
  std::string bad = blob;
  const auto ipos = bad.find("\ninitial ");
  ASSERT_NE(ipos, std::string::npos);
  bad.replace(ipos, bad.find('\n', ipos + 1) - ipos, "\ninitial 999999999");
  bad.erase(bad.rfind("digest "));
  util::append_digest(bad);
  const auto other = translate_fresh(medium_model());
  EXPECT_FALSE(versa::parse_checkpoint(other->ctx, other->initial, bad, error)
                   .has_value());
  EXPECT_NE(error.find("out-of-range term reference"), std::string::npos);
}

TEST(Checkpoint, DigestMismatchIsRejectedBeforeParsing) {
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = 40;
  std::string blob;
  bound.checkpoint_out = &blob;
  ASSERT_TRUE(core::analyze_source(medium_model(), "Root.impl", bound)
                  .stats.checkpoint_captured);

  std::string corrupt = blob;
  corrupt[corrupt.find("stats ") + 6] ^= 1;  // damage a counter digit
  std::string error;
  const auto fresh = translate_fresh(medium_model());
  EXPECT_FALSE(versa::parse_checkpoint(fresh->ctx, fresh->initial, corrupt,
                                       error)
                   .has_value());
  EXPECT_NE(error.find("digest"), std::string::npos);
}

}  // namespace
