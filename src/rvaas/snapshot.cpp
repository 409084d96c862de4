#include "rvaas/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/ensure.hpp"

namespace rvaas::core {

using sdn::FlowEntry;
using sdn::FlowUpdateKind;

namespace {

std::vector<FlowEntry> sorted_entries(
    const std::map<sdn::FlowEntryId, FlowEntry>& table) {
  std::vector<FlowEntry> entries;
  entries.reserve(table.size());
  for (const auto& [_, e] : table) entries.push_back(e);
  std::sort(entries.begin(), entries.end(),
            [](const FlowEntry& a, const FlowEntry& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.id > b.id;
            });
  return entries;
}

}  // namespace

std::uint64_t SnapshotManager::next_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

void SnapshotManager::record(sim::Time t, sdn::SwitchId sw,
                             FlowUpdateKind kind, const FlowEntry& entry) {
  history_.push_back(HistoryRecord{t, sw, kind, entry, false});
  // A removal pairs with every add of the same rule inside the window; the
  // records newer than the window are all still present, newest last.
  if (kind == FlowUpdateKind::Removed) {
    HistoryRecord& rem = history_.back();
    for (std::size_t i = history_.size() - 1; i-- > aged_;) {
      HistoryRecord& add = history_[i];
      if (t - add.t > kHistoryWindow) break;
      if (add.kind == FlowUpdateKind::Added && add.sw == sw &&
          add.entry.id == entry.id) {
        add.paired = rem.paired = true;
      }
    }
  }
  // Records the window has passed that pair with nothing can never enter
  // a short_lived() answer: drop them, keep the paired ones in order.
  const auto first = history_.begin() + static_cast<long>(aged_);
  auto last = first;
  while (last != history_.end() && last->t + kHistoryWindow < t) ++last;
  const auto kept = std::remove_if(
      first, last, [](const HistoryRecord& r) { return !r.paired; });
  aged_ = static_cast<std::size_t>(kept - history_.begin());
  history_.erase(kept, last);
  while (history_.size() > history_limit_) {
    history_.pop_front();
    if (aged_ > 0) --aged_;
  }
}

void SnapshotManager::discrepancy(sim::Time t, sdn::SwitchId sw,
                                  std::uint64_t& count,
                                  std::string description) {
  ++count;
  discrepancies_.push_back(Discrepancy{t, sw, std::move(description)});
  if (discrepancies_.size() > kDiscrepancyRing) discrepancies_.pop_front();
}

void SnapshotManager::apply_update(const sdn::FlowUpdate& update,
                                   sim::Time now) {
  ++events_applied_;
  bool changed = !tables_.contains(update.sw);  // first appearance
  auto& table = tables_[update.sw];
  switch (update.kind) {
    case FlowUpdateKind::Added:
    case FlowUpdateKind::Modified: {
      const auto it = table.find(update.entry.id);
      changed = changed || it == table.end() || !(it->second == update.entry);
      table[update.entry.id] = update.entry;
      break;
    }
    case FlowUpdateKind::Removed:
      changed = (table.erase(update.entry.id) > 0) || changed;
      break;
  }
  if (changed) bump(update.sw);
  last_confirmed_[update.sw] = now;
  record(now, update.sw, update.kind, update.entry);
}

void SnapshotManager::reconcile(const sdn::StatsReply& reply, sim::Time now) {
  ++polls_applied_;
  bool changed = !tables_.contains(reply.sw);  // first appearance
  auto& table = tables_[reply.sw];

  std::map<sdn::FlowEntryId, const FlowEntry*> actual;
  for (const FlowEntry& e : reply.entries) actual[e.id] = &e;

  // Entries the switch has that we did not know about.
  for (const auto& [id, entry] : actual) {
    const auto it = table.find(id);
    if (it == table.end()) {
      discrepancy(now, reply.sw, discrepancy_counts_.unknown,
                  "poll found unknown entry id " + std::to_string(id.value) +
                      " (match " + entry->match.to_string() + ")");
      record(now, reply.sw, FlowUpdateKind::Added, *entry);
      table[id] = *entry;
      changed = true;
    } else if (!(it->second == *entry)) {
      discrepancy(now, reply.sw, discrepancy_counts_.modified,
                  "poll found modified entry id " + std::to_string(id.value));
      record(now, reply.sw, FlowUpdateKind::Modified, *entry);
      it->second = *entry;
      changed = true;
    }
  }

  // Entries we believed in that the switch no longer has.
  for (auto it = table.begin(); it != table.end();) {
    if (!actual.contains(it->first)) {
      discrepancy(now, reply.sw, discrepancy_counts_.vanished,
                  "poll shows entry id " + std::to_string(it->first.value) +
                      " vanished");
      record(now, reply.sw, FlowUpdateKind::Removed, it->second);
      it = table.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }

  if (changed) bump(reply.sw);
  last_confirmed_[reply.sw] = now;
  meters_[reply.sw] = reply.meters;
}

std::map<sdn::SwitchId, std::vector<FlowEntry>> SnapshotManager::table_dump()
    const {
  std::map<sdn::SwitchId, std::vector<FlowEntry>> out;
  for (const auto& [sw, table] : tables_) out[sw] = sorted_entries(table);
  return out;
}

std::vector<FlowEntry> SnapshotManager::table(sdn::SwitchId sw) const {
  const auto it = tables_.find(sw);
  if (it == tables_.end()) return {};
  return sorted_entries(it->second);
}

std::vector<sdn::SwitchId> SnapshotManager::switch_ids() const {
  std::vector<sdn::SwitchId> out;
  out.reserve(tables_.size());
  for (const auto& [sw, _] : tables_) out.push_back(sw);
  return out;
}

const FlowEntry* SnapshotManager::find_entry(sdn::SwitchId sw,
                                             sdn::FlowEntryId id) const {
  const auto table_it = tables_.find(sw);
  if (table_it == tables_.end()) return nullptr;
  const auto it = table_it->second.find(id);
  return it == table_it->second.end() ? nullptr : &it->second;
}

std::uint64_t SnapshotManager::table_epoch(sdn::SwitchId sw) const {
  const auto it = table_changed_at_.find(sw);
  return it == table_changed_at_.end() ? 0 : it->second;
}

std::vector<sdn::SwitchId> SnapshotManager::dirty_since(
    std::uint64_t since) const {
  std::vector<sdn::SwitchId> out;
  for (const auto& [sw, e] : table_changed_at_) {
    if (e > since) out.push_back(sw);
  }
  return out;
}

std::vector<HistoryRecord> SnapshotManager::short_lived(
    sim::Time max_dwell) const {
  util::ensure(max_dwell <= kHistoryWindow,
               "short_lived dwell exceeds the history window");
  std::vector<HistoryRecord> out;
  // For each Added record, look for a matching Removed within max_dwell
  // (only a paired add has one within the window at all).
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const HistoryRecord& add = history_[i];
    if (add.kind != FlowUpdateKind::Added || !add.paired) continue;
    for (std::size_t j = i + 1; j < history_.size(); ++j) {
      const HistoryRecord& rem = history_[j];
      if (rem.t - add.t > max_dwell) break;
      if (rem.kind == FlowUpdateKind::Removed && rem.sw == add.sw &&
          rem.entry.id == add.entry.id) {
        out.push_back(add);
        break;
      }
    }
  }
  return out;
}

std::size_t SnapshotManager::entry_count() const {
  std::size_t n = 0;
  for (const auto& [_, table] : tables_) n += table.size();
  return n;
}

std::size_t SnapshotManager::approx_memory_bytes() const {
  // Rough model: a flow entry costs ~sizeof(FlowEntry) plus its match
  // vector; history records add the same per record.
  constexpr std::size_t kPerEntry = sizeof(sdn::FlowEntry) + 64;
  return entry_count() * kPerEntry + history_.size() * (kPerEntry + 24) +
         discrepancies_.size() * 96;
}

}  // namespace rvaas::core
