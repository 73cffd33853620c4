// Internal: registration hooks for the built-in pass files, and what they
// share. Each translation unit in src/lint contributes one tier;
// Registry::builtin() calls all three (explicit registration keeps the
// passes alive through static-library linking).
#pragma once

#include "lint/lint.hpp"

namespace aadlsched::lint {

/// Certificate rows for a processor's tasks (only the periodic ones when
/// `periodic_only`), with per-task blocking and response times if given.
std::vector<CertTask> cert_rows(
    const ScreenCpu& sc, bool periodic_only,
    const std::vector<std::int64_t>* blocking = nullptr,
    const std::vector<std::int64_t>* response = nullptr);

void register_model_passes(Registry& reg);      // AL001..AL006
void register_screening_passes(Registry& reg);  // AL007..AL009
void register_exact_passes(Registry& reg);      // AL013..AL016
void register_acsr_passes(Registry& reg);       // AL012

}  // namespace aadlsched::lint
