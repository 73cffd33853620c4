#include "versa/symbolic.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <unordered_map>

#include "util/hash.hpp"

namespace aadlsched::versa {

namespace {

/// Discrete + entry-point state of one class. `x[i]` is the time since
/// task i's last dispatch (virtually extended before the first dispatch:
/// the initial value T_i - offset_i makes the first dispatch land at
/// t = offset_i). Invariants between events: 0 <= x[i] <= T_i;
/// active[i] implies 0 < rem[i] and x[i] < D_i.
struct ClassState {
  std::vector<std::int64_t> x;
  std::vector<std::int64_t> rem;
  std::vector<std::uint8_t> active;

  friend bool operator==(const ClassState& a, const ClassState& b) {
    return a.x == b.x && a.rem == b.rem && a.active == b.active;
  }
};

struct StoredClass {
  ClassState state;
  Dbm zone;               // delay segment [entry, entry + delta]
  std::int64_t t_abs;     // absolute entry time (witness only, not identity)
  std::int64_t delta;     // delay to the boundary event instant
  std::uint64_t depth;
  std::int64_t parent;    // index into the class table; -1 for the root
  std::string event;      // what happened at this class's entry instant
};

std::string format_time(std::int64_t ns) {
  if (ns % 1'000'000 == 0) return std::to_string(ns / 1'000'000) + "ms";
  if (ns % 1'000 == 0) return std::to_string(ns / 1'000) + "us";
  return std::to_string(ns) + "ns";
}

/// The running task per cpu: highest priority among active tasks.
/// Priorities are validated distinct per cpu, so this is deterministic.
std::vector<std::int64_t> running_per_cpu(const SymbolicModel& m,
                                          const ClassState& s) {
  std::vector<std::int64_t> run(m.cpu_count, -1);
  for (std::size_t i = 0; i < m.tasks.size(); ++i) {
    if (!s.active[i]) continue;
    std::int64_t& r = run[m.tasks[i].cpu];
    if (r < 0 || m.tasks[i].priority >
                     m.tasks[static_cast<std::size_t>(r)].priority)
      r = static_cast<std::int64_t>(i);
  }
  return run;
}

/// Delay from the entry point of `s` to its next event instant (first
/// dispatch, deadline, or running-job completion). Zero only for the
/// artificial initial state (offset-0 dispatches fire at t = 0).
std::int64_t next_delta(const SymbolicModel& m, const ClassState& s) {
  std::int64_t delta = INT64_MAX;
  const auto run = running_per_cpu(m, s);
  for (std::size_t i = 0; i < m.tasks.size(); ++i) {
    delta = std::min(delta, m.tasks[i].period_ns - s.x[i]);
    if (s.active[i])
      delta = std::min(delta, m.tasks[i].deadline_ns - s.x[i]);
  }
  for (const std::int64_t r : run)
    if (r >= 0) delta = std::min(delta, s.rem[static_cast<std::size_t>(r)]);
  return delta;
}

/// The zone of a class: its entry point closed under the delay to the next
/// event. A genuine (non-singular) DBM — the diagonal constraints pin the
/// clock differences, the delay bounds the segment.
Dbm class_zone(const SymbolicModel& m, const ClassState& s,
               std::int64_t delta) {
  Dbm z = Dbm::point(s.x);
  z.up();
  for (std::size_t i = 0; i < m.tasks.size(); ++i)
    z.constrain_upper(i + 1, s.x[i] + delta);
  z.canonicalize();
  return z;
}

/// Signature of the subsumption bucket: discrete state plus the clock
/// *differences*. Classes in one bucket lie on the same delay line, where
/// zone inclusion (segment containment) is meaningful.
std::uint64_t bucket_hash(const ClassState& s) {
  std::uint64_t h = util::fnv1a(std::string_view{});
  for (const std::uint8_t a : s.active) h = util::hash_combine(h, a);
  for (const std::int64_t r : s.rem)
    h = util::hash_combine(h, static_cast<std::uint64_t>(r));
  for (const std::int64_t xi : s.x)
    h = util::hash_combine(h, static_cast<std::uint64_t>(xi - s.x[0]));
  return h;
}

bool same_bucket(const ClassState& a, const ClassState& b) {
  if (a.active != b.active || a.rem != b.rem) return false;
  for (std::size_t i = 0; i < a.x.size(); ++i)
    if (a.x[i] - a.x[0] != b.x[i] - b.x[0]) return false;
  return true;
}

struct Expansion {
  bool miss = false;
  std::vector<std::string> missed;
  std::string event_desc;
  std::vector<ClassState> successors;  // demand-corner fan when !miss
  std::int64_t delta = 0;
};

/// Advance `s` to its boundary instant and fire every event there, in the
/// enumerator's order: completions first, then deadline checks, then
/// dispatches. A running job completing exactly at its deadline is on
/// time (the translated dispatcher accepts `done` at t == Deadline); an
/// active job with work left at its deadline instant is a miss.
Expansion expand(const SymbolicModel& m, const ClassState& in) {
  Expansion out;
  out.delta = next_delta(m, in);

  ClassState s = in;
  const auto run = running_per_cpu(m, s);
  for (std::size_t i = 0; i < s.x.size(); ++i) s.x[i] += out.delta;
  for (const std::int64_t r : run)
    if (r >= 0) s.rem[static_cast<std::size_t>(r)] -= out.delta;

  std::string desc;
  const auto note = [&desc](const std::string& what) {
    if (!desc.empty()) desc += ", ";
    desc += what;
  };

  // Completions: only the running job of a cpu can drain to zero.
  for (std::size_t i = 0; i < m.tasks.size(); ++i) {
    if (s.active[i] && s.rem[i] == 0) {
      s.active[i] = 0;
      note("completion of " + m.tasks[i].path);
    }
  }
  // Deadline checks (post-completion: finishing at the boundary is fine).
  for (std::size_t i = 0; i < m.tasks.size(); ++i) {
    if (s.active[i] && s.x[i] >= m.tasks[i].deadline_ns) {
      out.miss = true;
      out.missed.push_back(m.tasks[i].path);
      note("deadline miss of " + m.tasks[i].path);
    }
  }
  if (out.miss) {
    out.event_desc = desc;
    return out;
  }
  // Dispatches, with the demand-interval corner fan.
  std::vector<std::size_t> dispatched;
  for (std::size_t i = 0; i < m.tasks.size(); ++i) {
    if (s.x[i] == m.tasks[i].period_ns) {
      s.x[i] = 0;
      dispatched.push_back(i);
      note("dispatch of " + m.tasks[i].path);
    }
  }
  out.event_desc = desc;

  std::vector<std::size_t> varying;  // dispatched tasks with cmin < cmax
  for (const std::size_t i : dispatched)
    if (m.tasks[i].cmin_ns < m.tasks[i].cmax_ns)
      varying.push_back(i);
  // Cap the corner fan: beyond 2^8 corners, the all-cmax corner alone
  // still decides the verdict (demand monotonicity, DESIGN.md §16).
  if (varying.size() > 8) varying.clear();

  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << varying.size());
       ++mask) {
    ClassState succ = s;
    for (const std::size_t i : dispatched) {
      succ.rem[i] = m.tasks[i].cmax_ns;
      succ.active[i] = 1;
    }
    for (std::size_t v = 0; v < varying.size(); ++v)
      if (mask & (std::uint64_t{1} << v))
        succ.rem[varying[v]] = m.tasks[varying[v]].cmin_ns;
    // Zero-demand jobs complete at their dispatch instant.
    for (const std::size_t i : dispatched) {
      if (succ.rem[i] == 0) succ.active[i] = 0;
    }
    out.successors.push_back(std::move(succ));
  }
  return out;
}

}  // namespace

std::vector<std::string> validate_model(const SymbolicModel& m) {
  std::vector<std::string> reasons;
  if (m.tasks.empty()) reasons.push_back("no tasks");
  if (m.cpu_count == 0) reasons.push_back("no processors");
  for (const SymbolicTask& t : m.tasks) {
    if (t.period_ns <= 0)
      reasons.push_back("task '" + t.path + "' has no positive period");
    if (t.deadline_ns <= 0 || t.deadline_ns > t.period_ns)
      reasons.push_back("task '" + t.path +
                        "' deadline is not constrained (0 < D <= T)");
    if (t.cmin_ns < 0 || t.cmax_ns < t.cmin_ns)
      reasons.push_back("task '" + t.path + "' has a malformed demand " +
                        "interval");
    if (t.offset_ns < 0 || t.offset_ns > t.period_ns)
      reasons.push_back("task '" + t.path +
                        "' dispatch offset outside [0, period]");
    if (t.cpu >= m.cpu_count)
      reasons.push_back("task '" + t.path + "' bound to unknown processor");
  }
  for (std::size_t a = 0; a < m.tasks.size(); ++a) {
    for (std::size_t b = a + 1; b < m.tasks.size(); ++b) {
      if (m.tasks[a].cpu == m.tasks[b].cpu &&
          m.tasks[a].priority == m.tasks[b].priority)
        reasons.push_back("tasks '" + m.tasks[a].path + "' and '" +
                          m.tasks[b].path +
                          "' share a priority on one processor");
    }
  }
  return reasons;
}

SymbolicResult explore_symbolic(const SymbolicModel& m,
                                const SymbolicOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  SymbolicResult result;
  result.dbm_dimension = m.tasks.size() + 1;

  if (auto reasons = validate_model(m); !reasons.empty()) {
    result.stop = util::StopReason::Fault;
    result.witness = std::move(reasons);
    return result;
  }

  util::BudgetTracker tracker(opts.budget);

  std::vector<StoredClass> table;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  std::deque<std::size_t> queue;

  const auto finish = [&](SymbolicResult& r) {
    r.classes = table.size();
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  };

  /// Insert a candidate class unless an already-visited class on the same
  /// delay line subsumes its zone. Returns true when inserted.
  const auto insert = [&](ClassState&& s, std::int64_t t_abs,
                          std::uint64_t depth, std::int64_t parent,
                          std::string event) {
    const std::int64_t delta = next_delta(m, s);
    Dbm zone = class_zone(m, s, delta);
    auto& bucket = buckets[bucket_hash(s)];
    for (const std::size_t idx : bucket) {
      if (same_bucket(table[idx].state, s) && table[idx].zone.includes(zone)) {
        ++result.subsumptions;
        return false;
      }
    }
    bucket.push_back(table.size());
    queue.push_back(table.size());
    table.push_back(StoredClass{std::move(s), std::move(zone), t_abs, delta,
                                depth, parent, std::move(event)});
    result.peak_frontier = std::max<std::uint64_t>(result.peak_frontier,
                                                   queue.size());
    return true;
  };

  ClassState init;
  init.x.reserve(m.tasks.size());
  for (const SymbolicTask& t : m.tasks)
    init.x.push_back(t.period_ns - t.offset_ns);
  init.rem.assign(m.tasks.size(), 0);
  init.active.assign(m.tasks.size(), 0);
  insert(std::move(init), 0, 0, -1, "system start");

  while (!queue.empty()) {
    if (table.size() >= opts.max_classes) {
      result.stop = util::StopReason::MaxStates;
      finish(result);
      return result;
    }
    const auto status = tracker.check();
    if (status.signal == util::BudgetSignal::Stop) {
      result.stop = status.reason;
      finish(result);
      return result;
    }

    const std::size_t cur = queue.front();
    queue.pop_front();
    result.depth = std::max(result.depth, table[cur].depth);

    // expand() re-reads delta from the state; it matches table[cur].delta.
    Expansion ex = expand(m, table[cur].state);
    const std::int64_t t_event = table[cur].t_abs + ex.delta;

    if (ex.miss) {
      result.miss_found = true;
      result.missed = std::move(ex.missed);
      // Walk back to the root for the event trail.
      std::vector<std::string> trail;
      trail.push_back("t=" + format_time(t_event) + ": " + ex.event_desc);
      for (std::int64_t i = static_cast<std::int64_t>(cur); i >= 0;
           i = table[static_cast<std::size_t>(i)].parent) {
        const StoredClass& c = table[static_cast<std::size_t>(i)];
        trail.push_back("t=" + format_time(c.t_abs) + ": " + c.event);
      }
      std::reverse(trail.begin(), trail.end());
      result.witness = std::move(trail);
      finish(result);
      return result;  // conclusive, like the enumerator's first deadlock
    }

    for (ClassState& succ : ex.successors) {
      ++result.transitions;
      insert(std::move(succ), t_event, table[cur].depth + 1,
             static_cast<std::int64_t>(cur),
             ex.event_desc.empty() ? "(quiescent)" : ex.event_desc);
    }
  }

  result.complete = true;
  finish(result);
  return result;
}

}  // namespace aadlsched::versa
