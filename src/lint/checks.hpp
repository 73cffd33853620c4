// Internal: the built-in checks, each defined next to its code in the
// checks_*.cpp file of its group, and what those files share. lint.cpp
// lists them in run order (lint::catalogue()).
#pragma once

#include "lint/lint.hpp"

namespace aadlsched::lint {

/// Certificate rows for a processor's tasks (only the periodic ones when
/// `periodic_only`), with per-task blocking and response times if given.
std::vector<CertTask> cert_rows(
    const ScreenCpu& sc, bool periodic_only,
    const std::vector<std::int64_t>* blocking = nullptr,
    const std::vector<std::int64_t>* response = nullptr);

// checks_model.cpp: model hygiene, and the instantaneous-cycle check.
extern const Check kUnboundThread;        // AL001
extern const Check kUnresolvedEndpoint;   // AL002
extern const Check kDeadEndConnection;    // AL003
extern const Check kMissingProperty;      // AL004
extern const Check kInconsistentTiming;   // AL005
extern const Check kQueueMisconfig;       // AL006
extern const Check kInstantaneousCycle;   // AL012
// checks_screen.cpp: utilization screens.
extern const Check kUtilizationOverload;  // AL007
extern const Check kRmUtilizationBound;   // AL008
extern const Check kEdfUtilization;       // AL009
// checks_exact.cpp: exact screens and shared-resource checks.
extern const Check kExactRta;             // AL013
extern const Check kEdfQpa;               // AL014
extern const Check kBlockingRta;          // AL015
extern const Check kSharedAccessHazard;   // AL016

}  // namespace aadlsched::lint
