// Exploration checkpoints: persist a paused BFS (versa::Wavefront) together
// with everything it needs from its acsr::Context, so a budget-bound run can
// be resumed later — in another process — without re-translating the AADL
// model or re-exploring the visited prefix (DESIGN.md §12).
//
// A checkpoint is a self-contained text artifact:
//   * the translated ACSR module, round-tripped through the existing
//     printer/parser (acsr::Printer::module / acsr::parse_module), so the
//     restored Context has the same definitions;
//   * name tables (resources, events, definitions) serialized *by name* —
//     ids are not stable across a module round-trip (forward references
//     reorder DefIds), names are;
//   * the term DAG reachable from the visited set, emitted in ascending
//     TermId order. Hash-consing appends children before parents, so an
//     ascending walk reconstructs every node through the normal ground
//     constructors with all children already mapped;
//   * the wavefront (frontier, next level, visited set, counters), with the
//     visited set sorted so serialization is byte-stable regardless of the
//     enumeration order of the engine's seen-set;
//   * the printed initial ground term, re-parsed on restore through
//     acsr::parse_ground_term as an end-to-end printer/parser cross-check;
//   * a trailing FNV-1a digest over everything above, verified first.
//
// Soundness of resuming (DESIGN.md §12): at any stop point the explorer
// maintains the BFS invariant that every reachable-but-unvisited state is
// reachable through frontier ++ next_frontier. Seeding a fresh run with
// (visited, frontiers, counters) therefore continues the exact same BFS:
// the verdict is identical to an uninterrupted run, and on a run that
// completes the space the state/transition counts are identical too.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "acsr/context.hpp"
#include "versa/explorer.hpp"

namespace aadlsched::versa {

/// The reduction configuration a checkpoint was captured under (format v2).
/// A visited set built with symmetry canonicalization holds orbit
/// representatives, not raw states, so resuming it under different
/// reduction settings would silently re-explore (or skip) states; the
/// parser hands the captured configuration back so the caller can rebuild
/// the same SymmetryModel — and reject a resume whose settings differ.
struct CheckpointReduction {
  bool symmetry = false;
  bool commute = false;
  bool uniform_dispatch = false;
  /// Mangled role names per symmetry group (what SymmetryModel::build
  /// takes; resolvable against the restored Context by name).
  std::vector<std::vector<std::string>> role_groups;
};

/// A checkpoint parsed back into a fresh Context plus the wavefront with
/// every id remapped into that Context's tables.
struct RestoredCheckpoint {
  std::unique_ptr<acsr::Context> ctx;
  Wavefront wave;
  /// The cache key the checkpoint was stored under ("-" when none given).
  std::string key;
  /// Reduction settings the capturing run explored with.
  CheckpointReduction reduction;
};

/// Serialize a captured wavefront against the Context it was explored in.
/// `key` identifies the request (instance fingerprint + options hash); pass
/// "-" or empty when keying is handled elsewhere. Deterministic: the same
/// (context, wavefront, reduction) always serializes to the same bytes.
std::string serialize_checkpoint(const acsr::Context& ctx,
                                 const Wavefront& wave, std::string_view key,
                                 const CheckpointReduction& reduction = {});

/// Parse and validate a checkpoint. Returns std::nullopt (with a
/// human-readable reason in `error`) on any digest mismatch, malformed
/// section, unknown name, or out-of-range id — the caller falls back to a
/// cold run. Blobs in a stale format version (v1 predates the reduction
/// section) are rejected the same way, with a diagnostic naming the stale
/// version, rather than resumed with guessed settings.
std::optional<RestoredCheckpoint> parse_checkpoint(std::string_view text,
                                                   std::string& error);

}  // namespace aadlsched::versa
