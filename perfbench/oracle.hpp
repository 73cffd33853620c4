// Inputs the benchmark generates and the answers it expects for them.
//
// Each expected verdict comes from outside the pipeline under test: a
// hand-written constant for the cruise-control model, and classical
// response-time / demand analysis on task parameters the benchmark itself
// holds (never on anything parsed back out of the generated AADL).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/spec.hpp"

namespace perfbench {

/// The paper's Fig. 1 cruise-control model (models/cruise_control.aadl).
inline constexpr const char* kCruiseRoot = "CruiseControlSystem.impl";

/// Hand-written answer for the model as shipped, at a 2 ms quantum.
inline constexpr bool kCruiseSchedulable = true;

std::string read_model(const std::string& name);

/// Editor-session variants of the cruise-control model: each variant sets
/// the six threads' Compute_Execution_Time upper bounds (ms).
class CruiseVariants {
 public:
  static constexpr std::size_t kThreads = 6;
  using Bounds = std::array<int, kThreads>;

  explicit CruiseVariants(std::string model_text);

  /// The model with every thread's upper bound replaced.
  std::string render(const Bounds& hi) const;
  /// The upper bounds of the model as shipped.
  static Bounds shipped();
  /// Lowest upper bound an edit may set for thread i (its lower bound)
  /// and how far above it edits reach.
  static int lower(std::size_t i);
  static constexpr int kEditRangeMs = 10;
  /// Per-processor rate-monotonic response-time analysis on the upper
  /// bounds at `quantum_ms` (execution times rounded up). Equal periods
  /// are charged as mutual interference, the reading under which every
  /// tie-break order must meet its deadlines.
  static bool rta_schedulable(const Bounds& hi, int quantum_ms);

 private:
  // The model text split around the six upper-bound literals.
  std::vector<std::string> pieces_;
};

/// The fleet population: policy {rm, dm, edf} x utilization
/// {0.5, 0.7, 0.9, 1.1} x task count {3, 5, 8} x deadline fraction
/// {1.0, 0.8} x 10 generator seeds starting at `seed_begin`.
aadlsched::exp::ExperimentSpec fleet_spec(std::uint64_t seed_begin);

/// Expected verdict of one fleet model: exact response-time analysis for
/// rm/dm, an exact integer processor-demand test for edf, on the task set
/// regenerated from the same generator inputs. nullopt when the task set
/// cannot be generated or the policy has no exact test.
std::optional<bool> fleet_schedulable(const aadlsched::exp::ExperimentSpec& spec,
                                      const aadlsched::exp::Cell& cell,
                                      std::uint64_t seed);

}  // namespace perfbench
