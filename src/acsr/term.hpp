// Ground ACSR process terms, hash-consed.
//
// A *ground* term has no free parameters: every priority, guard and timeout
// has been evaluated. States of the exploration are ground terms, so state
// identity is TermId equality. Constructors normalize:
//   * Choice is flattened, sorted, deduplicated, and drops NIL summands
//     (P + NIL ~ P, P + P ~ P);
//   * Parallel is flattened and sorted (associativity/commutativity) but
//     keeps duplicates (P || P is not P);
//   * a Scope whose timeout reached 0 collapses to its timeout handler;
// which canonicalizes semantically-equal states and measurably shrinks the
// explored space (see bench_statespace).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "acsr/ids.hpp"
#include "util/chunked_vector.hpp"
#include "util/flat_set.hpp"

namespace aadlsched::acsr {

enum class TermKind : std::uint8_t {
  Nil,       // deadlocked process, no transitions
  Act,       // A : P        (timed action prefix)
  Evt,       // (e!,p).P or (e?,p).P
  Choice,    // P1 + ... + Pn        (n >= 2)
  Parallel,  // P1 || ... || Pn      (n >= 2)
  Restrict,  // P \ F
  Scope,     // P Δt_a (Q, R, S)     (temporal scope, §3)
  Call,      // D[v1, ..., vk]       (instantiated definition call)
};

struct TermNode {
  TermKind kind = TermKind::Nil;
  std::uint8_t flag = 0;   // Evt: 1 = send, 0 = receive
  std::uint32_t a = 0;     // Act: ActionId | Evt: Event | Restrict: EventSetId
                           // Scope: body | Call: DefId
  std::uint32_t b = 0;     // Act/Evt: continuation | Restrict: body
                           // Scope: time left (cast; kInfiniteTime = -1)
  std::uint32_t c = 0;     // Evt: priority | Scope: exception label (0=none)
  std::uint32_t extra = 0;      // offset into the extra arena
  std::uint32_t extra_len = 0;  // number of u32 payload words

  friend bool operator==(const TermNode&, const TermNode&) = default;
};

/// Scope extra payload layout (extra_len == 3):
///   [0] exception continuation (kInvalidTerm if no exception exit)
///   [1] interrupt handler      (kInvalidTerm if none)
///   [2] timeout handler        (kInvalidTerm means time out to NIL)
struct ScopeParts {
  TermId body = kNil;
  TimeValue time_left = kInfiniteTime;
  Event exception_label = 0;  // 0 = no exception exit
  TermId exception_cont = kInvalidTerm;
  TermId interrupt_handler = kInvalidTerm;
  TermId timeout_handler = kInvalidTerm;
};

class TermTable {
 public:
  TermTable();

  TermId nil() const { return kNil; }
  TermId act(ActionId action, TermId cont);
  TermId evt(Event e, bool send, Priority priority, TermId cont);
  // Choice and Parallel read their operands from a span and normalize them
  // in a scratch buffer the table keeps, so interning an existing term
  // allocates nothing.
  TermId choice(std::span<const TermId> alts);
  TermId choice(std::initializer_list<TermId> alts) {
    return choice(std::span<const TermId>(alts.begin(), alts.size()));
  }
  TermId parallel(std::span<const TermId> procs);
  TermId parallel(std::initializer_list<TermId> procs) {
    return parallel(std::span<const TermId>(procs.begin(), procs.size()));
  }
  TermId restrict(EventSetId events, TermId body);
  TermId scope(const ScopeParts& parts);
  TermId call(DefId def, std::span<const ParamValue> args);

  const TermNode& node(TermId id) const { return nodes_[id]; }
  TermKind kind(TermId id) const { return nodes_[id].kind; }

  /// Children / argument payload of a node. Storage is chunked and append-
  /// only, so the returned span stays valid across further construction.
  std::span<const std::uint32_t> payload(TermId id) const;

  ScopeParts scope_parts(TermId id) const;

  std::size_t size() const { return nodes_.size(); }

  /// Footprint (nodes + payload arena + hash index), for the
  /// resource-governance memory estimate (util/budget.hpp).
  std::size_t approx_bytes() const {
    return nodes_.size() * sizeof(TermNode) +
           arena_.size() * sizeof(std::uint32_t) + index_.approx_bytes();
  }

 private:
  TermId intern(TermNode proto, std::span<const std::uint32_t> payload);

  // Chunked so node references and payload spans stay valid while further
  // terms are interned (see chunked_vector.hpp). Node chunks are 24 KiB, so
  // the NIL node an empty table holds costs little; 2^18 of them keep the
  // 2^28-node capacity.
  util::ChunkedVector<TermNode, 10, std::size_t{1} << 18> nodes_;
  util::ChunkedVector<std::uint32_t, 14> arena_;
  util::FlatHashIndex index_;
  std::vector<TermId> flat_;  // choice/parallel/call normalization scratch
};

}  // namespace aadlsched::acsr
