// The node-program contract.
//
// An algorithm is a per-node state machine type A satisfying NodeProgram:
//
//   using Message = ...;   // what a node broadcasts each round
//   using Output  = ...;   // what a node eventually decides
//   bool OnSendInto(Round r, Message& slot);       // false = silent
//   void OnReceive(Round r, Inbox<Message> in);    // neighbor msgs
//   bool HasDecided() const;
//   std::optional<Output> output() const;
//   double PublicState() const;          // what adaptive adversaries may see
//   static std::size_t MessageBits(const Message&);  // honest wire size
//
// Each round the engine has every node compose its message in place into
// its own outbox slot (OnSendInto), then delivers each node the multiset of
// its current neighbors' messages (anonymous local broadcast) through
// OnReceive. A decided node keeps participating (helping others terminate)
// unless the algorithm itself chooses to go silent.
//
// Memory layout. The engine owns one raw outbox: a Message slot per node,
// reused every round, plus a separate sent-flag byte per node, so
// silentness never touches a message cache line. Delivery is zero-copy, with two backings behind the
// same Inbox view:
//
//   * dense (the common case): when every node sent this round, an Inbox is
//     the graph's own CSR neighbor-id span plus the base pointer of the
//     outbox — entry i is outbox[neighbors[i]], read in place with no
//     per-receiver gather at all.
//   * sparse (silent-node rounds, tests): a gather of `const M*` pointers
//     into the outbox, one per messaging neighbor.
//
// Either way a message broadcast to k neighbors exists exactly once in
// memory and is read in place by all k receivers. Iteration yields
// const Message& — a program must never mutate (or cast away const on) an
// inbox entry, because every other receiver of the same sender sees the
// same object. Inbox entries are only valid for the duration of the
// OnReceive call; a program that needs a message beyond that must copy it.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>

namespace sdn::net {

using Round = std::int64_t;

/// Zero-copy view of the messages delivered to one node in one round, over
/// either backing described above. Dereferencing yields const M&; the
/// pointed-to messages are shared by every receiver.
template <typename M>
class Inbox {
 public:
  using value_type = M;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = M;
    using difference_type = std::ptrdiff_t;
    using pointer = const M*;
    using reference = const M&;

    iterator() = default;
    explicit iterator(const M* const* slot) : slot_(slot) {}
    iterator(const M* base, const std::int32_t* id) : base_(base), id_(id) {}

    reference operator*() const {
      return base_ != nullptr ? base_[static_cast<std::size_t>(*id_)]
                              : **slot_;
    }
    pointer operator->() const { return &operator*(); }
    iterator& operator++() {
      if (base_ != nullptr) {
        ++id_;
      } else {
        ++slot_;
      }
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++(*this);
      return tmp;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.slot_ == b.slot_ && a.id_ == b.id_;
    }

   private:
    const M* const* slot_ = nullptr;  // sparse cursor
    const M* base_ = nullptr;         // dense outbox base
    const std::int32_t* id_ = nullptr;  // dense cursor
  };
  using const_iterator = iterator;

  /// Empty inbox (a round with no messaging neighbors).
  Inbox() = default;
  /// Sparse view over an externally owned pointer gather (the engine's, or
  /// a test's stack array of &message pointers).
  explicit Inbox(std::span<const M* const> slots) : slots_(slots) {}
  /// Dense view: `outbox[ids[i]]` must hold a live round-r message for
  /// every i (the engine takes this path only when every node sent this
  /// round, so the raw slot array has no engaged/empty distinction to
  /// encode — one pointer plus the CSR ids).
  Inbox(const M* outbox, std::span<const std::int32_t> ids)
      : base_(outbox), ids_(ids) {}

  [[nodiscard]] std::size_t size() const {
    return base_ != nullptr ? ids_.size() : slots_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const M& operator[](std::size_t i) const {
    return base_ != nullptr ? base_[static_cast<std::size_t>(ids_[i])]
                            : *slots_[i];
  }
  [[nodiscard]] iterator begin() const {
    return base_ != nullptr ? iterator(base_, ids_.data())
                            : iterator(slots_.data());
  }
  [[nodiscard]] iterator end() const {
    return base_ != nullptr ? iterator(base_, ids_.data() + ids_.size())
                            : iterator(slots_.data() + slots_.size());
  }

  /// True when this inbox is backed by direct outbox indexing (all senders
  /// present); exposed so tests can assert which path a round took.
  [[nodiscard]] bool dense() const { return base_ != nullptr; }

 private:
  std::span<const M* const> slots_;  // sparse backing
  const M* base_ = nullptr;          // dense backing: outbox base
  std::span<const std::int32_t> ids_;  // dense backing: neighbor ids
};

/// The send contract. OnSendInto(r, slot) composes the node's round-r message
/// into `slot` and returns whether the node sent. Slots are reused across
/// rounds, so a sender must overwrite every field a receiver may read (only
/// payload lanes beyond the declared count may keep stale bytes); a silent
/// node may leave the slot in any state, since no receiver sees it. The
/// engine calls OnSendInto exactly once per executed round, before that
/// round's OnReceive, and never for a round it does not execute.
template <typename A>
concept NodeProgram = requires(
    A a, const A ca, Round r,
    Inbox<typename A::Message> inbox,
    typename A::Message& slot,
    const typename A::Message& msg) {
  typename A::Message;
  typename A::Output;
  { a.OnSendInto(r, slot) } -> std::same_as<bool>;
  { a.OnReceive(r, inbox) } -> std::same_as<void>;
  { ca.HasDecided() } -> std::convertible_to<bool>;
  { ca.output() } -> std::same_as<std::optional<typename A::Output>>;
  { ca.PublicState() } -> std::convertible_to<double>;
  { A::MessageBits(msg) } -> std::convertible_to<std::size_t>;
};

/// What a node reports about where it is inside its algorithm, for the
/// flight recorder's algorithm-phase track (obs::EventKind::kAlgoPhase).
struct ProgramPhase {
  /// Static-storage-duration phase name ("disseminate", "verify", ...) —
  /// the recorder stores the pointer, never a copy.
  const char* label = "";
  /// Phase ordinal within the algorithm's own numbering (hjswy doubling
  /// phase, census/committee guess k, ...).
  std::int64_t index = 0;
  /// Monotone per-node work counter (e.g. successful sketch merges); the
  /// engine sums this across nodes for kSketchMerge events.
  std::int64_t work = 0;
};

/// Optional extension of NodeProgram: programs that expose a phase label
/// get an algorithm-phase track in traces. ObsPhase() must be cheap (a
/// member read) — the engine samples it per round while a recorder is
/// attached, and never otherwise.
template <typename A>
concept ObservableProgram = NodeProgram<A> && requires(const A ca) {
  { ca.ObsPhase() } -> std::same_as<ProgramPhase>;
};

}  // namespace sdn::net
