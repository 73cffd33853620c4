#include "translate/translator.hpp"

#include <algorithm>

#include "translate/timing.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::translate {

namespace {

using aadl::ComponentInstance;
using aadl::DispatchProtocol;
using aadl::OverflowProtocol;
using aadl::SchedulingProtocol;
using aadl::SemanticConnection;
using acsr::Builder;
using acsr::DefRole;
using acsr::ExprId;
using acsr::OpenTermId;

/// Cap on any time parameter after conversion, to protect the explorer
/// from quantum settings that explode the state space.
constexpr std::int64_t kMaxQuanta = 100'000;

std::string mangle(std::string_view path) {
  std::string out;
  out.reserve(path.size());
  for (char c : path) out.push_back(c == '.' ? '_' : c);
  return out;
}

/// Internal bookkeeping for one thread during translation.
struct ThreadCtx {
  TranslatedThread info;
  const aadl::ComponentInstance* processor = nullptr;
  SchedulingProtocol protocol = SchedulingProtocol::RateMonotonic;
  std::int64_t proc_dmax = 0;   // max deadline on the processor (EDF/LLF)
  /// Outgoing enqueue events raised in the completion cascade.
  std::vector<std::string> completion_sends;
  /// Buses used by the possibly-final computation steps.
  std::vector<std::string> bus_resources;
  /// Incoming dequeue events (for the dispatcher) with their priorities.
  std::vector<std::pair<std::string, int>> triggers;
  /// Priority of this thread's dispatch! event (distinct per thread when
  /// TranslateOptions::ordered_instants is set).
  int dispatch_prio = 1;
  /// Observer events raised at dispatch (obs_start) and woven into the
  /// completion cascade (obs_end), for the latency observers of §5.
  std::vector<std::string> observe_starts;
  std::vector<std::string> observe_ends;
  /// First dispatch offset (Dispatch_Offset), quanta; periodic only.
  std::int64_t offset = 0;
};

struct ObserverCtx {
  TranslatedObserver info;
  std::string start_event;
  std::string end_event;
};

struct QueueCtx {
  TranslatedQueue info;
  std::string enq_event;
  std::string deq_event;
  int deq_priority = 1;
  int enq_priority = 1;  // 0 when fed by the environment (device source)
};

struct GeneratorCtx {
  std::string name;       // def name
  std::string enq_event;
  std::int64_t period = 0;  // 0 = nondeterministic environment source
  std::string aadl_path;
};

}  // namespace

/// Everything validation works out and the build consumes: the checked,
/// quantized threads with their priorities, the queues, generators and
/// observers, and the restricted events named so far.
struct Plan::Data {
  TranslateOptions opts_;
  std::vector<ThreadCtx> threads_;
  std::vector<QueueCtx> queues_;
  std::vector<GeneratorCtx> generators_;
  std::vector<ObserverCtx> observers_;
  std::vector<std::string> restricted_;
};

namespace {

/// The first step: every check that can refuse a model. It reads the
/// instance model only and reports to `diags`; nothing here touches a
/// Context.
class Validator : public Plan::Data {
 public:
  Validator(const aadl::InstanceModel& model, util::DiagnosticEngine& diags,
            const TranslateOptions& opts)
      : model_(model), diags_(diags) {
    opts_ = opts;
  }

  bool run() {
    if (!validate_structure()) return false;
    if (!collect_threads()) return false;
    if (opts_.ordered_instants) {
      int dp = 1;
      for (ThreadCtx& tc : threads_) tc.dispatch_prio = dp++;
    }
    if (!assign_priorities()) return false;
    collect_connections();
    if (!check_trigger_preconditions()) return false;
    return collect_observers();
  }

 private:
  // --- validation ----------------------------------------------------------

  bool validate_structure() {
    if (model_.threads.empty()) {
      diags_.error({}, "model has no thread components (§4.1 requires at "
                       "least one)");
      return false;
    }
    if (model_.processors.empty()) {
      diags_.error({}, "model has no processor components (§4.1 requires at "
                       "least one)");
      return false;
    }
    bool ok = true;
    for (const ComponentInstance* t : model_.threads) {
      if (!model_.bindings.count(t)) {
        diags_.error({}, "thread '" + t->path +
                             "' is not bound to a processor (§4.1)");
        ok = false;
      }
    }
    return ok;
  }

  /// The translator's policy on one quantized parameter: a warning when
  /// rounding lost time, an error above kMaxQuanta.
  bool check_quanta(std::string_view what, const std::string& who,
                    std::int64_t ns, std::int64_t quanta) {
    const std::int64_t q = opts_.quantum_ns;
    if (ns % q != 0) {
      diags_.warning({}, std::string(what) + " of '" + who + "' (" +
                             std::to_string(ns) + " ns) is not a multiple "
                             "of the quantum; rounded " +
                             (quanta > ns / q ? "up" : "down"));
    }
    if (quanta > kMaxQuanta) {
      diags_.error({}, std::string(what) + " of '" + who + "' is " +
                           std::to_string(quanta) +
                           " quanta, above the translator's cap; increase "
                           "the quantum");
      return false;
    }
    return true;
  }

  bool collect_threads() {
    for (const ComponentInstance* t : model_.threads) {
      auto props = aadl::thread_properties(model_, *t, diags_);
      if (!props) return false;
      ThreadCtx tc;
      tc.info.inst = t;
      tc.info.path = t->path;
      tc.info.mangled = mangle(t->path);
      tc.info.dispatch = props->dispatch;
      tc.processor = model_.bindings.at(t);

      const QuantizedTiming qt = quantize(*props, 0, opts_.quantum_ns);

      // Both execution-time bounds are reported before stopping.
      const bool cmin_ok = check_quanta("Compute_Execution_Time.min",
                                        t->path, props->compute_min_ns,
                                        qt.cmin);
      const bool cmax_ok = check_quanta("Compute_Execution_Time.max",
                                        t->path, props->compute_max_ns,
                                        qt.cmax);
      if (!cmin_ok || !cmax_ok) return false;
      tc.info.cmin = qt.cmin;
      tc.info.cmax = qt.cmax;

      if (props->period_ns > 0) {
        if (!check_quanta("Period", t->path, props->period_ns, qt.period))
          return false;
        if (qt.period < 1) {
          diags_.error({}, "Period of '" + t->path +
                               "' is below one scheduling quantum");
          return false;
        }
        tc.info.period = qt.period;
      }
      if (props->deadline_ns > 0) {
        if (!check_quanta("Deadline", t->path, props->deadline_ns,
                          qt.deadline))
          return false;
        tc.info.deadline = qt.deadline;
      }
      if (tc.info.dispatch == DispatchProtocol::Periodic &&
          tc.info.deadline > tc.info.period) {
        diags_.error({}, "periodic thread '" + t->path +
                             "' has Deadline > Period, which this "
                             "translation does not support");
        return false;
      }
      // The declared Priority until assign_priorities() replaces it.
      tc.info.static_priority = props->priority.value_or(0);
      if (const auto offset_ns = dispatch_offset_ns(model_, *t, diags_)) {
        // The cap applies to the offset as written, before the clamp.
        check_quanta("Dispatch_Offset", t->path, *offset_ns,
                     *offset_ns / opts_.quantum_ns);
        tc.offset = quantize(*props, *offset_ns, opts_.quantum_ns).offset;
      }
      tc.info.cpu_resource = "cpu_" + mangle(tc.processor->path);
      threads_.push_back(std::move(tc));
    }
    return true;
  }

  bool assign_priorities() {
    // Group threads per processor, in model order, and apply the
    // Scheduling_Protocol.
    for (const ComponentInstance* cpu : model_.processors) {
      std::vector<ThreadCtx*> group;
      for (ThreadCtx& tc : threads_)
        if (tc.processor == cpu) group.push_back(&tc);
      if (group.empty()) continue;
      auto proto = aadl::scheduling_protocol(model_, *cpu, diags_);
      if (!proto) return false;
      std::int64_t dmax = 0;
      std::vector<PriorityInput> inputs;
      for (ThreadCtx* tc : group) {
        dmax = std::max(dmax, tc->info.deadline);
        inputs.push_back({tc->info.dispatch, tc->info.period,
                          tc->info.deadline, tc->info.static_priority});
      }
      const PriorityAssignment pa =
          translate::assign_priorities(*proto, inputs);
      if (!pa.missing_priority.empty()) {
        diags_.error({}, "HPF scheduling on '" + cpu->path +
                             "' requires a Priority property on thread '" +
                             group[pa.missing_priority.front()]->info.path +
                             "'");
        return false;
      }
      for (std::size_t i = 0; i < group.size(); ++i) {
        group[i]->protocol = *proto;
        group[i]->proc_dmax = dmax;
        group[i]->info.static_priority = pa.priorities[i];
      }
    }
    return true;
  }

  ThreadCtx* thread_ctx(const ComponentInstance* inst) {
    for (ThreadCtx& tc : threads_)
      if (tc.info.inst == inst) return &tc;
    return nullptr;
  }

  // --- connections ------------------------------------------------------

  void collect_connections() {
    int conn_index = 0;
    for (const SemanticConnection& sc : model_.connections) {
      const std::string cm = util::concat(
          {"c", std::to_string(conn_index++), "_",
           mangle(sc.source ? sc.source->name + "_" + sc.source_port : "env")});

      ThreadCtx* dst = sc.destination ? thread_ctx(sc.destination) : nullptr;
      ThreadCtx* src = sc.source ? thread_ctx(sc.source) : nullptr;
      const bool src_is_device =
          sc.source && sc.source->category == aadl::Category::Device;

      const bool is_event_kind =
          sc.kind == aadl::FeatureKind::EventPort ||
          sc.kind == aadl::FeatureKind::EventDataPort;
      const bool dst_is_triggered =
          dst && (dst->info.dispatch == DispatchProtocol::Aperiodic ||
                  dst->info.dispatch == DispatchProtocol::Sporadic);

      // Bus refinement (§4.2): an outgoing connection of a thread bound to
      // a bus makes the thread's possibly-final computation steps use the
      // bus resource.
      if (sc.bus && src) {
        const std::string bus_res = "bus_" + mangle(sc.bus->path);
        auto& br = src->bus_resources;
        if (std::find(br.begin(), br.end(), bus_res) == br.end())
          br.push_back(bus_res);
      }

      // Queue + dispatch trigger (§4.3/4.4): event and event-data
      // connections whose ultimate destination is a sporadic or aperiodic
      // thread. Periodic threads ignore external events (§2).
      if (is_event_kind && dst_is_triggered) {
        const auto cp = aadl::connection_properties(model_, sc, diags_);
        QueueCtx qc;
        qc.info.connection = sc.describe();
        qc.info.mangled = cm;
        qc.info.size = cp.queue_size;
        qc.info.overflow = cp.overflow;
        qc.enq_event = "enq_" + cm;
        qc.deq_event = "deq_" + cm;
        qc.deq_priority = 1 + std::max(0, cp.urgency);
        qc.enq_priority = src_is_device ? 0 : 1;
        dst->triggers.emplace_back(qc.deq_event, qc.deq_priority);

        if (src) {
          src->completion_sends.push_back(qc.enq_event);
        } else if (src_is_device || !sc.source) {
          // Environment-driven source.
        }
        if (src_is_device) {
          GeneratorCtx gc;
          gc.name = "G_" + cm;
          gc.enq_event = qc.enq_event;
          gc.aadl_path = sc.source->path;
          // Periodic device? Use its Period property if present.
          if (const auto* pv =
                  aadl::find_property(model_, *sc.source, "period")) {
            if (const auto* iu = std::get_if<aadl::IntWithUnit>(&pv->data)) {
              if (auto ns = aadl::time_to_ns(*iu, diags_, {})) {
                const std::int64_t p = *ns / opts_.quantum_ns;
                if (check_quanta("Period", sc.source->path, *ns, p))
                  gc.period = std::max<std::int64_t>(p, 1);
              }
            }
          }
          generators_.push_back(std::move(gc));
        }
        queues_.push_back(std::move(qc));
      }
    }
  }

  bool check_trigger_preconditions() {
    bool ok = true;
    for (const ThreadCtx& tc : threads_) {
      const bool needs_trigger =
          tc.info.dispatch == DispatchProtocol::Aperiodic ||
          tc.info.dispatch == DispatchProtocol::Sporadic;
      if (needs_trigger && tc.triggers.empty()) {
        diags_.error({}, "non-periodic thread '" + tc.info.path +
                             "' has no incoming event connection to dispatch "
                             "it (§4.1 precondition 2)");
        ok = false;
      }
    }
    return ok;
  }

  // --- latency observers (§5) ---------------------------------------------

  bool collect_observers() {
    int index = 0;
    for (const LatencySpec& spec : opts_.latency_specs) {
      ThreadCtx* src = nullptr;
      ThreadCtx* sink = nullptr;
      for (ThreadCtx& tc : threads_) {
        if (tc.info.path == spec.source_path) src = &tc;
        if (tc.info.path == spec.sink_path) sink = &tc;
      }
      if (!src || !sink) {
        diags_.error({}, "latency spec references unknown thread '" +
                             (src ? spec.sink_path : spec.source_path) +
                             "'");
        return false;
      }
      const std::int64_t latency = spec.max_latency_ns / opts_.quantum_ns;
      if (!check_quanta("latency bound",
                        spec.source_path + "->" + spec.sink_path,
                        spec.max_latency_ns, latency))
        return false;
      ObserverCtx oc;
      oc.info.source_path = spec.source_path;
      oc.info.sink_path = spec.sink_path;
      oc.info.latency = latency;
      oc.info.description = spec.source_path + " -> " + spec.sink_path +
                            " within " + std::to_string(latency) +
                            " quanta";
      oc.start_event = "obs_start_" + std::to_string(index);
      oc.end_event = "obs_end_" + std::to_string(index);
      src->observe_starts.push_back(oc.start_event);
      sink->observe_ends.push_back(oc.end_event);
      restricted_.push_back(oc.start_event);
      restricted_.push_back(oc.end_event);
      observers_.push_back(std::move(oc));
      ++index;
    }
    return true;
  }

  const aadl::InstanceModel& model_;
  util::DiagnosticEngine& diags_;
};

/// The second step: the ACSR network of a validated plan. It cannot fail.
class NetworkBuilder : Plan::Data {
 public:
  NetworkBuilder(acsr::Context& ctx, Plan::Data&& plan)
      : Plan::Data(std::move(plan)), b_(ctx) {}

  Translation run() {
    for (ThreadCtx& tc : threads_) {
      build_thread_skeleton(tc);
      build_dispatcher(tc);
    }
    for (QueueCtx& qc : queues_) build_queue(qc);
    for (GeneratorCtx& gc : generators_) build_generator(gc);
    for (ObserverCtx& oc : observers_) build_observer(oc);

    return compose();
  }

 private:
  // --- thread skeleton (Fig. 4/5) --------------------------------------

  /// Priority expression for the cpu access of a thread. Parameters of the
  /// Compute definition: p(0) = e, p(1) = t.
  ExprId cpu_priority(const ThreadCtx& tc) {
    if (tc.info.dispatch == DispatchProtocol::Background) {
      // Background threads have no deadline and no t parameter: they run at
      // the lowest positive priority under every protocol.
      return b_.c(std::max(1, tc.info.static_priority));
    }
    switch (tc.protocol) {
      case SchedulingProtocol::Edf: {
        // pi = dmax - (d - t), shifted by +2 to stay above background/idle.
        return b_.add(b_.sub(b_.c(static_cast<std::int32_t>(tc.proc_dmax)),
                             b_.sub(b_.c(static_cast<std::int32_t>(
                                        tc.info.deadline)),
                                    b_.p(1))),
                      b_.c(2));
      }
      case SchedulingProtocol::Llf: {
        // laxity = (d - t) - (cmax - e); pi = dmax - laxity + 2.
        const ExprId slack =
            b_.sub(b_.c(static_cast<std::int32_t>(tc.info.deadline)), b_.p(1));
        const ExprId remaining =
            b_.sub(b_.c(static_cast<std::int32_t>(tc.info.cmax)), b_.p(0));
        const ExprId laxity = b_.sub(slack, remaining);
        return b_.add(
            b_.sub(b_.c(static_cast<std::int32_t>(tc.proc_dmax)), laxity),
            b_.c(2));
      }
      default:
        return b_.c(tc.info.static_priority);
    }
  }

  void build_thread_skeleton(ThreadCtx& tc) {
    const std::string& m = tc.info.mangled;
    const std::string await_name = "T_" + m + "_Await";
    const std::string compute_name = "T_" + m + "_Compute";
    const bool background =
        tc.info.dispatch == DispatchProtocol::Background;
    const std::int32_t cmin = static_cast<std::int32_t>(tc.info.cmin);
    const std::int32_t cmax = static_cast<std::int32_t>(tc.info.cmax);
    const std::int32_t d = static_cast<std::int32_t>(tc.info.deadline);

    restricted_.push_back("dispatch_" + m);
    restricted_.push_back("done_" + m);

    // Execution-time semantics. Under CommittedDemand with a genuine
    // range, the demand c is drawn (adversarially, by exploration of every
    // branch) when execution starts and becomes a third parameter; the
    // thread then runs exactly c quanta. Under LateCompletion (literal
    // Fig. 5) the thread may take the completion exit at any e >= cmin.
    const bool committed =
        opts_.time_model == ExecutionTimeModel::CommittedDemand &&
        cmin < cmax;
    // Parameter layout: e [, t] [, c].
    std::vector<std::string> params{"e"};
    if (!background) params.emplace_back("t");
    const std::int32_t idx_c =
        committed ? static_cast<std::int32_t>(params.size()) : -1;
    if (committed) params.emplace_back("c");

    const ExprId e = b_.p(0);
    const ExprId t = b_.p(1);  // meaningless for background threads
    const ExprId c_expr = committed ? b_.p(idx_c) : b_.c(cmax);
    const ExprId prio = cpu_priority(tc);

    // Data(-event) output is sent at completion (§4.4), at the start of the
    // completion cascade.
    const auto send_chain = [&](OpenTermId cont) {
      for (auto it = tc.completion_sends.rbegin();
           it != tc.completion_sends.rend(); ++it)
        cont = b_.send(*it, b_.c(1), cont);
      return cont;
    };

    // done carries priority 0 so that, when completion competes with a
    // timed step (LateCompletion, or a committed demand met before cmax
    // ... which cannot happen; committed completion is forced), the timed
    // alternative survives prioritization. Latency observers get their end
    // marker immediately before done.
    OpenTermId done_only = b_.send("done_" + m, b_.c(0), b_.call(await_name));
    for (auto it = tc.observe_ends.rbegin(); it != tc.observe_ends.rend();
         ++it)
      done_only = b_.send(*it, b_.c(1), done_only);

    std::vector<OpenTermId> alts;

    /// Arguments for a recursive Compute call.
    const auto mk_args = [&](ExprId ae, ExprId at) -> std::vector<ExprId> {
      std::vector<ExprId> args{ae};
      if (!background) args.push_back(at);
      if (committed) args.push_back(c_expr);
      return args;
    };

    const auto compute_step = [&](bool with_bus, ExprId next_e,
                                  ExprId next_t) {
      std::vector<std::pair<std::string, ExprId>> uses;
      uses.emplace_back(tc.info.cpu_resource, prio);
      if (with_bus)
        for (const std::string& bus : tc.bus_resources)
          uses.emplace_back(bus, prio);
      return b_.act(std::move(uses),
                    b_.call(compute_name, mk_args(next_e, next_t)));
    };

    const ExprId e1 = b_.add(e, b_.c(1));
    const ExprId t1 = background ? t : b_.add(t, b_.c(1));

    // Guard fragments. The demand bound is the committed c or cmax.
    const acsr::CondId below_demand = b_.lt(e, c_expr);
    const acsr::CondId can_run =
        background ? below_demand
                   : b_.both(below_demand, b_.lt(t, b_.c(d)));

    if (tc.bus_resources.empty()) {
      alts.push_back(b_.when(can_run, compute_step(false, e1, t1)));
    } else {
      // Non-final steps use only the cpu; possibly-final steps (those that
      // can complete the dispatch) also hold the bus (§4.2). Under the
      // committed model the final step is exactly e == c - 1; under
      // LateCompletion any step with e >= cmin - 1 may be final.
      const ExprId final_from =
          committed ? b_.sub(c_expr, b_.c(1)) : b_.c(cmin - 1);
      alts.push_back(b_.when(b_.both(can_run, b_.lt(e, final_from)),
                             compute_step(false, e1, t1)));
      alts.push_back(b_.when(b_.both(can_run, b_.ge(e, final_from)),
                             compute_step(true, e1, t1)));
    }

    // Preempted: time passes, no cpu (Fig. 5). R (data access resources) is
    // empty here because access connections are outside the translation's
    // scope (§4).
    alts.push_back(b_.when(
        can_run, b_.idle(b_.call(compute_name, mk_args(e, t1)))));

    // Completion exit. Committed: exactly at the chosen demand (forced —
    // the thread has no timed step left). LateCompletion: any e >= cmin.
    const acsr::CondId complete_guard =
        committed ? b_.eq(e, c_expr)
                  : (opts_.time_model == ExecutionTimeModel::CommittedDemand
                         ? b_.eq(e, b_.c(cmax))  // degenerate range
                         : b_.ge(e, b_.c(cmin)));

    alts.push_back(b_.when(complete_guard, send_chain(done_only)));

    tc.info.compute_def =
        b_.def(compute_name, params, b_.pick(std::move(alts)),
               DefRole::ThreadState, tc.info.path, "Compute");

    // AwaitDispatch: receive dispatch and start computing (committing the
    // demand when the model calls for it); idle otherwise.
    // Latency observers: the start marker fires right after the dispatch.
    const auto with_obs_start = [&](OpenTermId cont) {
      for (auto it = tc.observe_starts.rbegin();
           it != tc.observe_starts.rend(); ++it)
        cont = b_.send(*it, b_.c(1), cont);
      return cont;
    };

    std::vector<OpenTermId> await_alts;
    if (committed) {
      std::vector<OpenTermId> demand_branches;
      for (std::int32_t demand = cmin; demand <= cmax; ++demand) {
        std::vector<ExprId> args{b_.c(0)};
        if (!background) args.push_back(b_.c(0));
        args.push_back(b_.c(demand));
        demand_branches.push_back(b_.call(compute_name, std::move(args)));
      }
      await_alts.push_back(
          b_.recv("dispatch_" + m, b_.c(1),
                  with_obs_start(b_.pick(std::move(demand_branches)))));
    } else {
      await_alts.push_back(b_.recv(
          "dispatch_" + m, b_.c(1),
          with_obs_start(
              b_.call(compute_name, mk_args(b_.c(0), b_.c(0))))));
    }
    await_alts.push_back(b_.idle(b_.call(await_name)));
    tc.info.await_def =
        b_.def(await_name, {}, b_.pick(std::move(await_alts)),
               DefRole::ThreadState, tc.info.path, "AwaitDispatch");
  }

  // --- dispatchers (Fig. 6) ---------------------------------------------

  void build_dispatcher(ThreadCtx& tc) {
    const std::string& m = tc.info.mangled;
    const std::int32_t p = static_cast<std::int32_t>(tc.info.period);
    const std::int32_t d = static_cast<std::int32_t>(tc.info.deadline);
    const ExprId t = b_.p(0);
    const ExprId t1 = b_.add(t, b_.c(1));

    switch (tc.info.dispatch) {
      case DispatchProtocol::Periodic: {
        // Fig. 6(a). Initial state: Idle[p] -> immediate dispatch at t=0.
        const std::string idle = "D_" + m + "_Idle";
        const std::string wait = "D_" + m + "_Wait";
        b_.def(idle, {"t"},
               b_.pick({b_.when(b_.lt(t, b_.c(p)),
                                b_.idle(b_.call(idle, {t1}))),
                        b_.when(b_.eq(t, b_.c(p)),
                                b_.send("dispatch_" + m, b_.c(tc.dispatch_prio),
                                        b_.call(wait, {b_.c(0)})))}),
               DefRole::Dispatcher, tc.info.path, "DispatcherIdle");
        b_.def(wait, {"t"},
               b_.pick({b_.recv("done_" + m, b_.c(0), b_.call(idle, {t})),
                        b_.when(b_.lt(t, b_.c(d)),
                                b_.idle(b_.call(wait, {t1})))}),
               DefRole::Dispatcher, tc.info.path, "AwaitDone");
        // First dispatch happens Dispatch_Offset quanta after t = 0: start
        // the idle countdown part-way through.
        initial_.push_back(
            {idle, {static_cast<acsr::ParamValue>(p - tc.offset)}});
        break;
      }
      case DispatchProtocol::Aperiodic:
      case DispatchProtocol::Sporadic: {
        // Fig. 6(b)/(c).
        const bool sporadic = tc.info.dispatch == DispatchProtocol::Sporadic;
        const std::string idle = "D_" + m + "_Idle";
        const std::string go = "D_" + m + "_Go";
        const std::string wait = "D_" + m + "_Wait";
        const std::string sep = "D_" + m + "_Sep";

        std::vector<OpenTermId> idle_alts;
        for (const auto& [deq, prio] : tc.triggers)
          idle_alts.push_back(b_.recv(deq, b_.c(prio), b_.call(go)));
        idle_alts.push_back(b_.idle(b_.call(idle)));
        b_.def(idle, {}, b_.pick(std::move(idle_alts)), DefRole::Dispatcher,
               tc.info.path, "DispatcherIdle");
        b_.def(go, {},
               b_.send("dispatch_" + m, b_.c(tc.dispatch_prio), b_.call(wait, {b_.c(0)})),
               DefRole::Dispatcher, tc.info.path, "Dispatching");

        OpenTermId after_done;
        if (sporadic) {
          after_done = b_.call(sep, {b_.min(t, b_.c(p))});
        } else {
          after_done = b_.call(idle);
        }
        b_.def(wait, {"t"},
               b_.pick({b_.recv("done_" + m, b_.c(0), after_done),
                        b_.when(b_.lt(t, b_.c(d)),
                                b_.idle(b_.call(wait, {t1})))}),
               DefRole::Dispatcher, tc.info.path, "AwaitDone");
        if (sporadic) {
          // Separation: idle until the minimum inter-dispatch interval has
          // elapsed since the dispatch, then behave as Idle.
          b_.def(sep, {"t"},
                 b_.pick({b_.when(b_.lt(t, b_.c(p)),
                                  b_.idle(b_.call(sep, {t1}))),
                          b_.when(b_.ge(t, b_.c(p)), b_.call(idle))}),
                 DefRole::Dispatcher, tc.info.path, "Separation");
        }
        initial_.push_back({idle, {}});
        break;
      }
      case DispatchProtocol::Background: {
        const std::string start = "D_" + m + "_Start";
        const std::string absorb = "D_" + m + "_Absorb";
        const std::string done = "D_" + m + "_Done";
        b_.def(start, {},
               b_.send("dispatch_" + m, b_.c(tc.dispatch_prio), b_.call(absorb)),
               DefRole::Dispatcher, tc.info.path, "DispatcherIdle");
        b_.def(absorb, {},
               b_.pick({b_.recv("done_" + m, b_.c(0), b_.call(done)),
                        b_.idle(b_.call(absorb))}),
               DefRole::Dispatcher, tc.info.path, "AwaitDone");
        b_.def(done, {}, b_.idle(b_.call(done)), DefRole::Dispatcher,
               tc.info.path, "Halted");
        initial_.push_back({start, {}});
        break;
      }
    }
  }

  // --- queues (§4.4) -----------------------------------------------------

  void build_queue(QueueCtx& qc) {
    const std::string name = "Q_" + qc.info.mangled;
    const ExprId n = b_.p(0);
    const std::int32_t cap = qc.info.size;

    restricted_.push_back(qc.enq_event);
    restricted_.push_back(qc.deq_event);

    std::vector<OpenTermId> alts;
    // Enqueue below capacity.
    alts.push_back(b_.when(b_.lt(n, b_.c(cap)),
                           b_.recv(qc.enq_event, b_.c(qc.enq_priority),
                                   b_.call(name, {b_.add(n, b_.c(1))}))));
    // Enqueue at capacity: overflow behaviour.
    if (qc.info.overflow == OverflowProtocol::Error) {
      alts.push_back(b_.when(
          b_.eq(n, b_.c(cap)),
          b_.recv(qc.enq_event, b_.c(qc.enq_priority), b_.nil())));
    } else {
      // DropNewest and DropOldest are indistinguishable for a counter
      // abstraction (§4.4: events carry no payload).
      alts.push_back(b_.when(
          b_.eq(n, b_.c(cap)),
          b_.recv(qc.enq_event, b_.c(qc.enq_priority), b_.call(name, {n}))));
    }
    // Dequeue when non-empty.
    alts.push_back(b_.when(b_.gt(n, b_.c(0)),
                           b_.send(qc.deq_event, b_.c(qc.deq_priority),
                                   b_.call(name, {b_.sub(n, b_.c(1))}))));
    // Time may always pass for the queue itself.
    alts.push_back(b_.idle(b_.call(name, {n})));

    qc.info.def = b_.def(name, {"n"}, b_.pick(std::move(alts)),
                         DefRole::Queue, qc.info.connection, "Queue");
    initial_.push_back({name, {0}});
  }

  // --- device event generators -------------------------------------------

  void build_generator(GeneratorCtx& gc) {
    if (gc.period > 0) {
      const ExprId t = b_.p(0);
      const std::int32_t p = static_cast<std::int32_t>(gc.period);
      b_.def(gc.name, {"t"},
             b_.pick({b_.when(b_.lt(t, b_.c(p)),
                              b_.idle(b_.call(gc.name,
                                              {b_.add(t, b_.c(1))}))),
                      b_.when(b_.eq(t, b_.c(p)),
                              b_.send(gc.enq_event, b_.c(1),
                                      b_.call(gc.name, {b_.c(0)})))}),
             DefRole::Generic, gc.aadl_path, "Generator");
      initial_.push_back(
          {gc.name, {static_cast<acsr::ParamValue>(gc.period)}});
    } else {
      // Nondeterministic environment: may inject an event at any quantum
      // boundary (priority 0 keeps injection optional).
      b_.def(gc.name, {},
             b_.pick({b_.send(gc.enq_event, b_.c(0), b_.call(gc.name)),
                      b_.idle(b_.call(gc.name))}),
             DefRole::Generic, gc.aadl_path, "Generator");
      initial_.push_back({gc.name, {}});
    }
  }

  // --- latency observers (§5) ---------------------------------------------

  void build_observer(ObserverCtx& oc) {
    // O      = (start?).Wait[0] + (end?).O + {}:O
    //          (stray ends — a sink completion with no measurement open —
    //           are absorbed so the sink never blocks)
    // Wait[t] = (end?).O + (start?).Wait[t]      (non-pipelined: keep the
    //           oldest open measurement) + (t<L): {}:Wait[t+1]
    // At t == L the Wait state refuses to let time pass: deadlock =
    // latency violation, found by the explorer like any deadline miss.
    const std::string name = "O_" + mangle(oc.info.source_path) + "_" +
                             mangle(oc.info.sink_path);
    const std::string wait = name + "_Wait";
    const ExprId t = b_.p(0);
    const std::int32_t latency = static_cast<std::int32_t>(oc.info.latency);
    b_.def(name, {},
           b_.pick({b_.recv(oc.start_event, b_.c(1),
                            b_.call(wait, {b_.c(0)})),
                    b_.recv(oc.end_event, b_.c(1), b_.call(name)),
                    b_.idle(b_.call(name))}),
           DefRole::Observer, oc.info.description, "LatencyIdle");
    b_.def(wait, {"t"},
           b_.pick({b_.recv(oc.end_event, b_.c(1), b_.call(name)),
                    b_.recv(oc.start_event, b_.c(1), b_.call(wait, {t})),
                    b_.when(b_.lt(t, b_.c(latency)),
                            b_.idle(b_.call(wait, {b_.add(t, b_.c(1))})))}),
           DefRole::Observer, oc.info.description, "LatencyWait");
    initial_.push_back({name, {}});
  }

  // --- composition ----------------------------------------------------------

  Translation compose() {
    Translation out;
    out.quantum_ns = opts_.quantum_ns;

    // Emit the composition as a definition so the printed ACSR module is
    // self-contained (parse it back, explore "System", same verdict).
    std::vector<OpenTermId> oprocs;
    for (const ThreadCtx& tc : threads_) {
      oprocs.push_back(b_.call(b_.context().definition(tc.info.await_def)
                                   .name));
      out.threads.push_back(tc.info);
    }
    for (const auto& [def_name, args] : initial_) {
      std::vector<ExprId> arg_exprs;
      arg_exprs.reserve(args.size());
      for (acsr::ParamValue v : args) arg_exprs.push_back(b_.c(v));
      oprocs.push_back(b_.call(def_name, std::move(arg_exprs)));
    }
    const OpenTermId body =
        b_.hide(restricted_, b_.context().o_parallel(std::move(oprocs)));
    const acsr::DefId system =
        b_.def("System", {}, body, DefRole::Generic, "", "System");
    out.initial = b_.context().terms().call(system, {});

    for (const QueueCtx& qc : queues_) out.queues.push_back(qc.info);
    for (const ObserverCtx& oc : observers_) out.observers.push_back(oc.info);
    out.restricted_events = restricted_;
    return out;
  }

  Builder b_;
  /// Initial dispatcher/queue/generator/observer states, recorded as
  /// (definition, arguments) so the composition can be emitted both as a
  /// ground term and as a reparseable "System" definition.
  std::vector<std::pair<std::string, std::vector<acsr::ParamValue>>>
      initial_;
};

}  // namespace

const TranslatedThread* Translation::thread_by_path(
    std::string_view path) const {
  for (const TranslatedThread& t : threads)
    if (t.path == path) return &t;
  return nullptr;
}

Plan::Plan(std::unique_ptr<Data> data) : data_(std::move(data)) {}
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;
Plan::~Plan() = default;

std::optional<Plan> validate(const aadl::InstanceModel& model,
                             util::DiagnosticEngine& diags,
                             const TranslateOptions& opts) {
  Validator v(model, diags, opts);
  if (!v.run() || diags.has_errors()) return std::nullopt;
  return Plan(std::make_unique<Plan::Data>(std::move(v)));
}

Translation build(acsr::Context& ctx, Plan plan) {
  return NetworkBuilder(ctx, std::move(*plan.data_)).run();
}

std::optional<Translation> translate(acsr::Context& ctx,
                                     const aadl::InstanceModel& model,
                                     util::DiagnosticEngine& diags,
                                     const TranslateOptions& opts) {
  auto plan = validate(model, diags, opts);
  if (!plan) return std::nullopt;
  return build(ctx, std::move(*plan));
}

}  // namespace aadlsched::translate
