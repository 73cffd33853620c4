// Spans for the traced run: name, start, end, parent span and request id,
// recorded from the benchmark's own code around calls into the aadlsched
// layers. Kept in memory and written as JSON when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;            // index into Tracer::spans(), -1 for a root
  std::uint64_t request = 0;  // spans of one operation share this id
  std::size_t window = 0;     // host-correction window the span ran in

  double ms() const { return end_ms - start_ms; }
};

/// Single-threaded span recorder: spans nest in the order they are opened.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of this span in spans().
    int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

  void set_request(std::uint64_t r) { request_ = r; }
  /// Name a span once its outcome is known (a cache hit or a miss).
  void rename(int id, std::string name) { spans_[id].name = std::move(name); }
  /// The host-correction window the spans since the last call ran in has
  /// closed with this factor.
  void end_window(double factor) { factors_.push_back(factor); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the time covered by direct children, per span.
  std::vector<double> self_ms() const;
  /// Span durations (or self times) by span name, each multiplied by the
  /// correction factor of the span's window.
  std::map<std::string, std::vector<double>> by_name(bool self) const;
  /// Host-corrected duration of one span.
  double corrected_ms(int id) const;

  /// Write every span as a JSON array. False on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> factors_;
  std::uint64_t request_ = 0;
};

}  // namespace perfbench
