#pragma once
// The RVaaS controller's view of the network configuration (§IV.A.1):
// maintained passively from flow-monitor events, reconciled actively from
// randomized stats polls, with a change history that defends against
// short-term reconfiguration attacks.
//
// Change clock: the view carries a monotonically increasing epoch plus a
// per-switch table epoch so that consumers (CompiledModelCache in
// rvaas/engine.hpp) can recompile only the switches that actually changed.
// The clock is content-sensitive by design:
//   - a switch's FIRST appearance in the view bumps its epoch, even with an
//     empty table ("switch now known" is itself a view change, so every
//     switch in switch_ids() has a nonzero epoch),
//   - after that, apply_update() bumps iff the switch's table content
//     changes (a re-delivered identical entry or a Removed for an unknown
//     id is a no-op),
//   - reconcile() bumps once iff it adopts at least one difference (a poll
//     that agrees with the view is free),
//   - meter updates and history eviction never touch table epochs
//     (meters and history are outside the compiled model's inputs).
//
// Bounded state: the change history keeps what short_lived() can still
// report — every record younger than kHistoryWindow, plus the add/remove
// pairs at most kHistoryWindow apart — under a hard count cap; the
// discrepancy log is per-kind counters plus a ring of the latest entries.

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sdn/openflow.hpp"
#include "sim/event_loop.hpp"

namespace rvaas::core {

/// The longest rule dwell a short-lived-rule detector may ask for (the
/// fuzzer's flap oracle asks for at most 5 ms, the tests for 20 ms). A
/// record older than this that pairs with nothing can no longer change a
/// short_lived() answer and is dropped.
inline constexpr sim::Time kHistoryWindow = 25 * sim::kMillisecond;
/// Default hard cap on history records (oldest dropped first).
inline constexpr std::size_t kHistoryLimit = 256;
/// Recent discrepancies kept verbatim; older ones survive only as counts.
inline constexpr std::size_t kDiscrepancyRing = 16;

struct HistoryRecord {
  sim::Time t = 0;
  sdn::SwitchId sw{};
  sdn::FlowUpdateKind kind = sdn::FlowUpdateKind::Added;
  sdn::FlowEntry entry;
  /// One end of an Added/Removed pair of the same rule at most
  /// kHistoryWindow apart: kept past the window as short-lived evidence.
  bool paired = false;
};

/// A disagreement between the passive view and an active poll — with trusted
/// switches this indicates lost events or an active attack on monitoring.
struct Discrepancy {
  sim::Time t = 0;
  sdn::SwitchId sw{};
  std::string description;
};

/// Every discrepancy ever found, by kind.
struct DiscrepancyCounts {
  std::uint64_t unknown = 0;   ///< the switch has an entry the view lacks
  std::uint64_t modified = 0;  ///< the switch's entry differs from the view's
  std::uint64_t vanished = 0;  ///< the view has an entry the switch lacks
};

class SnapshotManager {
 public:
  explicit SnapshotManager(std::size_t history_limit = kHistoryLimit)
      : history_limit_(history_limit) {}

  /// Passive path: a flow-monitor event.
  void apply_update(const sdn::FlowUpdate& update, sim::Time now);

  /// Active path: reconciles a full stats dump against the current view.
  /// Differences are recorded as discrepancies AND adopted (the switch is
  /// the authority).
  void reconcile(const sdn::StatsReply& reply, sim::Time now);

  /// Entries per switch in match order (priority desc, id desc), the input
  /// to transfer-function compilation. Prefer table() per dirty switch on
  /// hot paths — this copies every table.
  std::map<sdn::SwitchId, std::vector<sdn::FlowEntry>> table_dump() const;

  /// Entries of one switch in match order — the per-switch input to
  /// incremental transfer-function compilation. Empty if the switch is
  /// unknown or its table is empty.
  std::vector<sdn::FlowEntry> table(sdn::SwitchId sw) const;

  /// Switches present in the view, sorted ascending.
  std::vector<sdn::SwitchId> switch_ids() const;

  /// Entry lookup without dumping the whole table (nullptr if absent).
  const sdn::FlowEntry* find_entry(sdn::SwitchId sw,
                                   sdn::FlowEntryId id) const;

  /// Monotonic change clock: bumped once per adopted table-content change
  /// (see the header comment for exactly when that is).
  std::uint64_t epoch() const { return epoch_; }

  /// Epoch at which `sw`'s table content last changed (0 = never changed).
  std::uint64_t table_epoch(sdn::SwitchId sw) const;

  /// The dirty set relative to `since`: switches whose table content changed
  /// after epoch `since` — exactly what a consumer that compiled at epoch
  /// `since` must recompile. Sorted ascending.
  std::vector<sdn::SwitchId> dirty_since(std::uint64_t since) const;

  /// Identity of this view instance: a copy takes a fresh id (diverging
  /// twins must never share an identity, or a cache keyed on (instance,
  /// epoch) could serve one twin's compilation for the other at equal
  /// epoch numbers); a move transfers the id with the content and
  /// re-identifies the moved-from side. Caches key on (instance_id, epoch).
  std::uint64_t instance_id() const { return instance_id_.value; }

  /// Re-identifies the view in place (content and epochs kept): what a
  /// controller restart/recovery adopting a persisted view looks like to
  /// the caches — everything keyed on the old identity must fully rebuild.
  void reset_identity() { instance_id_ = InstanceId(); }

  /// Latest meter configuration seen per switch (from stats polls).
  const std::map<sdn::SwitchId,
                 std::vector<std::pair<sdn::MeterId, sdn::MeterConfig>>>&
  meters() const {
    return meters_;
  }

  const std::deque<HistoryRecord>& history() const { return history_; }
  /// The latest kDiscrepancyRing discrepancies, oldest first.
  const std::deque<Discrepancy>& discrepancies() const {
    return discrepancies_;
  }
  const DiscrepancyCounts& discrepancy_counts() const {
    return discrepancy_counts_;
  }

  /// Rules that were added and removed again within `max_dwell` — the
  /// signature of a reconfiguration (flapping) attack. `max_dwell` must not
  /// exceed kHistoryWindow.
  std::vector<HistoryRecord> short_lived(sim::Time max_dwell) const;

  /// true iff some history record matches the predicate.
  template <class Pred>
  bool history_contains(Pred&& pred) const {
    for (const HistoryRecord& rec : history_) {
      if (pred(rec)) return true;
    }
    return false;
  }

  /// When the switch's state was last confirmed by the channel: a passive
  /// flow-monitor event or an adopted/agreeing stats poll both count (either
  /// proves the channel delivered fresh information about the switch).
  /// 0 = never confirmed. Survives reset_identity() with the content.
  sim::Time last_confirmed(sdn::SwitchId sw) const {
    const auto it = last_confirmed_.find(sw);
    return it == last_confirmed_.end() ? 0 : it->second;
  }

  std::uint64_t events_applied() const { return events_applied_; }
  std::uint64_t polls_applied() const { return polls_applied_; }
  std::size_t entry_count() const;
  /// Rough memory footprint of the view + history (experiment E7).
  std::size_t approx_memory_bytes() const;

 private:
  static std::uint64_t next_instance_id();

  /// Identity token implementing the instance_id() semantics above, so the
  /// manager itself keeps all-defaulted special members (a future data
  /// member cannot be forgotten in a hand-written copy).
  struct InstanceId {
    std::uint64_t value = next_instance_id();

    InstanceId() = default;
    InstanceId(const InstanceId&) {}  // fresh value via the default init
    InstanceId& operator=(const InstanceId& other) {
      if (this != &other) value = next_instance_id();
      return *this;
    }
    InstanceId(InstanceId&& other) noexcept : value(other.value) {
      other.value = next_instance_id();
    }
    InstanceId& operator=(InstanceId&& other) noexcept {
      if (this != &other) {
        value = other.value;
        other.value = next_instance_id();
      }
      return *this;
    }
  };

  void record(sim::Time t, sdn::SwitchId sw, sdn::FlowUpdateKind kind,
              const sdn::FlowEntry& entry);
  void discrepancy(sim::Time t, sdn::SwitchId sw, std::uint64_t& count,
                   std::string description);
  /// Marks `sw`'s table content as changed now.
  void bump(sdn::SwitchId sw) { table_changed_at_[sw] = ++epoch_; }

  std::map<sdn::SwitchId, std::map<sdn::FlowEntryId, sdn::FlowEntry>> tables_;
  std::map<sdn::SwitchId,
           std::vector<std::pair<sdn::MeterId, sdn::MeterConfig>>>
      meters_;
  std::deque<HistoryRecord> history_;
  /// history_[0, aged_) are paired records older than the window; the rest
  /// is every record the window has not yet passed.
  std::size_t aged_ = 0;
  std::deque<Discrepancy> discrepancies_;
  DiscrepancyCounts discrepancy_counts_;
  std::size_t history_limit_;
  std::uint64_t events_applied_ = 0;
  std::uint64_t polls_applied_ = 0;
  std::uint64_t epoch_ = 0;
  /// Per-switch change clock: the epoch of each table's last change.
  std::map<sdn::SwitchId, std::uint64_t> table_changed_at_;
  std::map<sdn::SwitchId, sim::Time> last_confirmed_;
  InstanceId instance_id_;
};

}  // namespace rvaas::core
