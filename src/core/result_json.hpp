// The one JSON serialization of an analysis result.
//
// Three surfaces emit result objects — `aadlsched --json` (single run),
// `aadlsched --batch --report` (one object per model), and the aadlschedd
// daemon (the `result` member of every analyze response) — and they must
// stay byte-identical so downstream tooling can diff them and the daemon
// can serve a cached CLI-rendered object verbatim. All three call
// render_result_json()/append_result_fields(); nothing else in the repo
// hand-renders an analysis result. Both take a core::Verdict, so the type
// fixes what is canonical: AnalysisResult's RunStats, scenario and witness
// never reach the object.
//
// The object shape is versioned: bump kResultSchemaVersion on any
// field rename/removal/semantic change (additions are backward-compatible
// and do not bump). The schema is documented in DESIGN.md §11 alongside
// the process exit codes — that section is the single source of truth.
#pragma once

#include <string>

#include "core/analyzer.hpp"
#include "util/json.hpp"

namespace aadlsched::core {

inline constexpr int kResultSchemaVersion = 1;

/// Parse an Outcome rendered by to_string(Outcome); nullopt on anything
/// else. Used by the service cache and the --connect client to recover the
/// outcome (and hence the exit code) from a stored result object.
std::optional<Outcome> outcome_from_string(std::string_view s);

/// Append the canonical result fields to an open JSON object. The caller
/// owns begin_object()/end_object() so the fields can be embedded in a
/// larger record (a batch entry adds "files"/"root" first).
void append_result_fields(util::JsonWriter& w, const Verdict& r);

/// The standalone canonical result object:
///   {"schema_version": 1, "outcome": ..., "stop_reason": ..., ...}
std::string render_result_json(const Verdict& r);

}  // namespace aadlsched::core
