// Exploration checkpoints: persist a paused BFS (versa::Wavefront) as a
// record of what exploration added to one translation, so a budget-bound
// run can be resumed later — in another process — without re-exploring the
// visited prefix (DESIGN.md §12).
//
// A checkpoint is valid only against the translation it was captured from.
// The resuming caller translates its own model first and restores into that
// Context; the checkpoint never builds a Context of its own. It holds:
//   * the exploration counters;
//   * a translation digest (FNV-1a over Printer::module() plus the resource
//     and event names in id order). Every raw resource, event and
//     definition id below is meaningful only under that digest;
//   * the action, event-set and term tables reachable from the initial
//     state and the state rows, terms in ascending TermId order.
//     Hash-consing appends children before parents, so an ascending walk
//     re-interns every node through the normal ground constructors with all
//     children already mapped;
//   * the wavefront's state store, one component row per state in
//     state-number order, then the frontier, the next level and the
//     visited states as state numbers (format v6). Serializing reads the
//     store in place; restoring interns each row straight into a fresh
//     store, which the resumed run then takes over: no copy of the rows;
//   * a trailing FNV-1a digest over everything above, verified first.
//
// Soundness of resuming (DESIGN.md §12): see versa::Wavefront.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "acsr/context.hpp"
#include "versa/explorer.hpp"

namespace aadlsched::versa {

/// Serialize a captured wavefront against the Context it was explored in.
/// Deterministic: the same (context, wavefront) always serializes to the
/// same bytes.
std::string serialize_checkpoint(const acsr::Context& ctx,
                                 const Wavefront& wave);

/// Restore a checkpoint into `ctx`, which must already hold the caller's
/// translation with initial state `initial`, and return its wavefront,
/// ready for ExploreOptions::resume.
/// Returns std::nullopt (with a human-readable reason in `error`) on a
/// digest mismatch, a malformed section, a translation digest that differs
/// from `ctx`'s, an out-of-range id, or a restored initial state other than
/// `initial`, a duplicate state row, or an out-of-range state number. A
/// rejected blob may already have interned part of itself into `ctx`, so a
/// cold fallback must explore a fresh translation. Blobs in a stale format
/// version (v1–v5) are rejected the same way, with a diagnostic naming the
/// stale version.
std::optional<Wavefront> parse_checkpoint(acsr::Context& ctx,
                                          acsr::TermId initial,
                                          std::string_view text,
                                          std::string& error);

}  // namespace aadlsched::versa
