#include "trace.hpp"

#include <cstdio>
#include <memory>

#include "host.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& t, std::string name) : t_(t) {
  Span s;
  s.name = std::move(name);
  s.parent = t_.open_.empty() ? -1 : t_.open_.back();
  s.request = t_.request_;
  s.window = t_.factors_.size();
  id_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(std::move(s));
  t_.open_.push_back(id_);
  t_.spans_[id_].start_ms = now_ms();
}

Tracer::Scope::~Scope() {
  t_.spans_[id_].end_ms = now_ms();
  t_.open_.pop_back();
}

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& s : spans_)
    if (s.parent >= 0) self[s.parent] -= s.ms();
  return self;
}

double Tracer::corrected_ms(int id) const {
  const Span& s = spans_[id];
  const double f = s.window < factors_.size() ? factors_[s.window] : 1.0;
  return s.ms() * f;
}

std::map<std::string, std::vector<double>> Tracer::by_name(bool self) const {
  const std::vector<double> own = self_ms();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double f = spans_[i].window < factors_.size()
                         ? factors_[spans_[i].window]
                         : 1.0;
    out[spans_[i].name].push_back((self ? own[i] : spans_[i].ms()) * f);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  const std::vector<double> own = self_ms();
  const double t0 = spans_.empty() ? 0 : spans_.front().start_ms;
  std::fprintf(f.get(), "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double fac = s.window < factors_.size() ? factors_[s.window] : 1.0;
    std::fprintf(f.get(),
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"request\": %llu, \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"self_ms\": %.6f, \"window\": %zu, \"factor\": %.6f}%s\n",
                 i, s.name.c_str(), s.parent,
                 static_cast<unsigned long long>(s.request),
                 s.start_ms - t0, s.end_ms - t0, own[i], s.window, fac,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f.get(), "]\n");
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
