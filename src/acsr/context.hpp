// Context: owner of every table of the ACSR core.
//
// A Context holds the interners (resources, events), the expression table,
// ground action/event-set/term tables, the open-term arena, and the process
// definitions. Instantiation (open term + parameter values -> ground term)
// and call unfolding live here because they touch all tables.
//
// A Context is single-threaded: one model is built and explored on one
// thread. Sweeps over independent model variants use one Context per job.
#pragma once

#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "acsr/action.hpp"
#include "acsr/expr.hpp"
#include "acsr/open_term.hpp"
#include "acsr/term.hpp"
#include "util/flat_set.hpp"
#include "util/interner.hpp"

namespace aadlsched::acsr {

class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- name tables ---------------------------------------------------
  Resource resource(std::string_view name) { return resources_.intern(name); }
  Event event(std::string_view name) { return events_.intern(name); }
  const std::string& resource_name(Resource r) const {
    return resources_.str(r);
  }
  const std::string& event_name(Event e) const { return events_.str(e); }
  const util::Interner& resource_interner() const { return resources_; }
  const util::Interner& event_interner() const { return events_; }

  // --- sub-tables ----------------------------------------------------
  ExprTable& exprs() { return exprs_; }
  const ExprTable& exprs() const { return exprs_; }
  ActionTable& actions() { return actions_; }
  const ActionTable& actions() const { return actions_; }
  EventSetTable& event_sets() { return event_sets_; }
  const EventSetTable& event_sets() const { return event_sets_; }
  TermTable& terms() { return terms_; }
  const TermTable& terms() const { return terms_; }

  // --- open term constructors -----------------------------------------
  OpenTermId o_nil();
  OpenTermId o_act(std::vector<OpenResourceUse> action, OpenTermId cont);
  OpenTermId o_evt(Event e, bool send, ExprId priority, OpenTermId cont);
  OpenTermId o_choice(std::vector<OpenTermId> children);
  OpenTermId o_parallel(std::vector<OpenTermId> children);
  OpenTermId o_restrict(std::vector<Event> events, OpenTermId body);
  OpenTermId o_scope(OpenTermId body, ExprId timeout, Event exception_label,
                     OpenTermId exception_cont, OpenTermId interrupt_handler,
                     OpenTermId timeout_handler);
  OpenTermId o_call(DefId def, std::vector<ExprId> args);
  OpenTermId o_cond(CondId guard, OpenTermId body);

  const OpenTermNode& open(OpenTermId id) const { return open_terms_[id]; }

  // --- definitions -----------------------------------------------------
  /// Declare a definition by name (body attached later). Allows mutual
  /// recursion. Returns the existing id if the name is already declared.
  DefId declare(std::string_view name);
  /// Attach body and metadata to a previously declared definition.
  void define(DefId id, Definition def);
  /// Declare + define in one step.
  DefId define(Definition def);

  const Definition& definition(DefId id) const { return defs_[id]; }
  std::optional<DefId> find_definition(std::string_view name) const;
  std::size_t definition_count() const { return defs_.size(); }

  // --- instantiation ---------------------------------------------------
  /// Instantiate an open term with concrete parameter values.
  TermId instantiate(OpenTermId open_id, std::span<const ParamValue> params);

  /// Unfold a ground Call term into the instantiated definition body.
  /// Memoized: states revisit the same calls constantly.
  TermId unfold(TermId call_term);

  // --- resource governance ---------------------------------------------
  /// Approximate bytes held by the hash-cons tables (terms, actions,
  /// expressions, interners). Dominated by the term table during
  /// exploration; used with the visited-set footprint to enforce
  /// RunBudget::memory_bytes (util/budget.hpp).
  std::size_t approx_bytes() const;

 private:
  OpenTermId push_open(OpenTermNode n);

  util::Interner resources_;
  util::Interner events_;
  ExprTable exprs_;
  ActionTable actions_;
  EventSetTable event_sets_;
  TermTable terms_;
  std::deque<OpenTermNode> open_terms_;
  std::deque<Definition> defs_;
  std::unordered_map<std::string, DefId> def_index_;
  util::FlatIdMap<TermId> unfold_memo_;
};

}  // namespace aadlsched::acsr
