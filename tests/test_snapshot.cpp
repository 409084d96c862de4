// SnapshotManager: passive event application, active reconciliation with
// discrepancy detection, flapping-rule history queries.

#include <gtest/gtest.h>

#include <vector>

#include "rvaas/snapshot.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"

namespace rvaas::core {
namespace {

using sdn::FlowEntry;
using sdn::FlowUpdate;
using sdn::FlowUpdateKind;
using sdn::SwitchId;

FlowEntry entry(std::uint64_t id, std::uint16_t priority = 5) {
  FlowEntry e;
  e.id = sdn::FlowEntryId(id);
  e.priority = priority;
  e.actions = {sdn::output(sdn::PortNo(1))};
  return e;
}

TEST(Snapshot, PassiveAddRemoveModify) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(2)}, 20);
  EXPECT_EQ(snap.entry_count(), 2u);

  FlowEntry modified = entry(1);
  modified.actions = {sdn::drop()};
  snap.apply_update({SwitchId(1), FlowUpdateKind::Modified, modified}, 30);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Removed, entry(2)}, 40);

  const auto tables = snap.table_dump();
  ASSERT_EQ(tables.at(SwitchId(1)).size(), 1u);
  EXPECT_EQ(tables.at(SwitchId(1))[0].actions, sdn::ActionList{sdn::drop()});
  EXPECT_EQ(snap.events_applied(), 4u);
  EXPECT_EQ(snap.history().size(), 4u);
}

TEST(Snapshot, TableDumpInMatchOrder) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1, 5)}, 1);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(2, 9)}, 2);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(3, 5)}, 3);
  const auto dump = snap.table_dump().at(SwitchId(1));
  ASSERT_EQ(dump.size(), 3u);
  EXPECT_EQ(dump[0].priority, 9);
  // Equal priority: newer id first (matches FlowTable semantics).
  EXPECT_EQ(dump[1].id, sdn::FlowEntryId(3));
  EXPECT_EQ(dump[2].id, sdn::FlowEntryId(1));
}

TEST(Snapshot, ReconcileAgreesSilently) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);

  sdn::StatsReply reply;
  reply.sw = SwitchId(1);
  reply.entries = {entry(1)};
  snap.reconcile(reply, 50);
  EXPECT_TRUE(snap.discrepancies().empty());
  EXPECT_EQ(snap.polls_applied(), 1u);
}

TEST(Snapshot, ReconcileFindsUnknownEntry) {
  // Active-only detection: a rule installed while events were not delivered.
  SnapshotManager snap;
  sdn::StatsReply reply;
  reply.sw = SwitchId(1);
  reply.entries = {entry(7)};
  snap.reconcile(reply, 100);

  ASSERT_EQ(snap.discrepancies().size(), 1u);
  EXPECT_NE(snap.discrepancies()[0].description.find("unknown entry"),
            std::string::npos);
  // The view adopts the switch's truth.
  EXPECT_EQ(snap.entry_count(), 1u);
}

TEST(Snapshot, ReconcileFindsVanishedEntry) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);

  sdn::StatsReply reply;
  reply.sw = SwitchId(1);
  snap.reconcile(reply, 100);  // empty dump

  ASSERT_EQ(snap.discrepancies().size(), 1u);
  EXPECT_NE(snap.discrepancies()[0].description.find("vanished"),
            std::string::npos);
  EXPECT_EQ(snap.entry_count(), 0u);
}

TEST(Snapshot, ReconcileFindsModifiedEntry) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);
  FlowEntry changed = entry(1);
  changed.actions = {sdn::drop()};
  sdn::StatsReply reply;
  reply.sw = SwitchId(1);
  reply.entries = {changed};
  snap.reconcile(reply, 100);
  ASSERT_EQ(snap.discrepancies().size(), 1u);
  EXPECT_NE(snap.discrepancies()[0].description.find("modified"),
            std::string::npos);
}

TEST(Snapshot, ShortLivedRulesDetected) {
  SnapshotManager snap;
  // Rule 1: lives 5ms (flapping). Rule 2: permanent.
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)},
                    10 * sim::kMillisecond);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(2)},
                    11 * sim::kMillisecond);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Removed, entry(1)},
                    15 * sim::kMillisecond);

  const auto flapping = snap.short_lived(20 * sim::kMillisecond);
  ASSERT_EQ(flapping.size(), 1u);
  EXPECT_EQ(flapping[0].entry.id, sdn::FlowEntryId(1));

  // With a tighter dwell bound, nothing qualifies.
  EXPECT_TRUE(snap.short_lived(2 * sim::kMillisecond).empty());
}

TEST(Snapshot, HistoryLimitBounded) {
  SnapshotManager snap(/*history_limit=*/10);
  for (std::uint64_t i = 0; i < 100; ++i) {
    snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(i)}, i);
  }
  EXPECT_EQ(snap.history().size(), 10u);
  EXPECT_EQ(snap.history().front().entry.id, sdn::FlowEntryId(90));
}

TEST(Snapshot, HistoryContainsPredicate) {
  SnapshotManager snap;
  FlowEntry e = entry(1);
  e.cookie = 0xe4f1;
  snap.apply_update({SwitchId(3), FlowUpdateKind::Added, e}, 10);
  EXPECT_TRUE(snap.history_contains(
      [](const HistoryRecord& r) { return r.entry.cookie == 0xe4f1; }));
  EXPECT_FALSE(snap.history_contains(
      [](const HistoryRecord& r) { return r.entry.cookie == 0xdead; }));
}

TEST(Snapshot, MemoryEstimateGrowsWithState) {
  SnapshotManager snap;
  const std::size_t empty = snap.approx_memory_bytes();
  for (std::uint64_t i = 0; i < 50; ++i) {
    snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(i)}, i);
  }
  EXPECT_GT(snap.approx_memory_bytes(), empty);
}

// --- Change clock (epoch / dirty set) bookkeeping --------------------------
// The documented contract (snapshot.hpp): epochs bump once per adopted
// table-content change and only then — identical re-deliveries, agreeing
// polls, meter updates and history eviction are all epoch-neutral.

TEST(SnapshotEpoch, ApplyUpdateBumpsPerContentChange) {
  SnapshotManager snap;
  EXPECT_EQ(snap.epoch(), 0u);
  EXPECT_EQ(snap.table_epoch(SwitchId(1)), 0u);

  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);
  EXPECT_EQ(snap.epoch(), 1u);
  EXPECT_EQ(snap.table_epoch(SwitchId(1)), 1u);

  snap.apply_update({SwitchId(2), FlowUpdateKind::Added, entry(1)}, 11);
  EXPECT_EQ(snap.epoch(), 2u);
  EXPECT_EQ(snap.table_epoch(SwitchId(1)), 1u);
  EXPECT_EQ(snap.table_epoch(SwitchId(2)), 2u);

  FlowEntry modified = entry(1);
  modified.actions = {sdn::drop()};
  snap.apply_update({SwitchId(1), FlowUpdateKind::Modified, modified}, 12);
  EXPECT_EQ(snap.epoch(), 3u);
  EXPECT_EQ(snap.table_epoch(SwitchId(1)), 3u);

  snap.apply_update({SwitchId(1), FlowUpdateKind::Removed, modified}, 13);
  EXPECT_EQ(snap.epoch(), 4u);
}

TEST(SnapshotEpoch, NoOpUpdatesDoNotBump) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);
  ASSERT_EQ(snap.epoch(), 1u);

  // Identical re-delivery: content unchanged.
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 11);
  EXPECT_EQ(snap.epoch(), 1u);

  // Removal of an id we never had, on a known switch: content unchanged
  // (but the event still counts and is recorded in history).
  snap.apply_update({SwitchId(1), FlowUpdateKind::Removed, entry(9)}, 12);
  EXPECT_EQ(snap.epoch(), 1u);
  EXPECT_EQ(snap.events_applied(), 3u);
  EXPECT_EQ(snap.history().size(), 3u);
}

TEST(SnapshotEpoch, FirstAppearanceBumpsEvenWithoutContent) {
  SnapshotManager snap;
  // A Removed for an id we never saw, on a switch we never saw: the table
  // stays empty, but the switch's first appearance is itself a view change
  // (every switch in switch_ids() must have a nonzero epoch, so consumers'
  // dirty sets are complete).
  snap.apply_update({SwitchId(5), FlowUpdateKind::Removed, entry(1)}, 1);
  EXPECT_EQ(snap.epoch(), 1u);
  EXPECT_EQ(snap.table_epoch(SwitchId(5)), 1u);
  EXPECT_EQ(snap.switch_ids().size(), 1u);

  // Repeating it on the now-known switch is a plain no-op.
  snap.apply_update({SwitchId(5), FlowUpdateKind::Removed, entry(1)}, 2);
  EXPECT_EQ(snap.epoch(), 1u);

  // Same for reconcile: an empty agreeing dump for an unknown switch bumps
  // once (first appearance), then never again.
  sdn::StatsReply reply;
  reply.sw = SwitchId(6);
  snap.reconcile(reply, 3);
  EXPECT_EQ(snap.epoch(), 2u);
  snap.reconcile(reply, 4);
  EXPECT_EQ(snap.epoch(), 2u);
}

TEST(SnapshotEpoch, AgreeingReconcileDoesNotBump) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);
  ASSERT_EQ(snap.epoch(), 1u);

  sdn::StatsReply reply;
  reply.sw = SwitchId(1);
  reply.entries = {entry(1)};
  snap.reconcile(reply, 50);
  EXPECT_EQ(snap.epoch(), 1u);
  EXPECT_EQ(snap.table_epoch(SwitchId(1)), 1u);
}

TEST(SnapshotEpoch, AdoptingReconcileBumpsOnce) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(2)}, 11);
  ASSERT_EQ(snap.epoch(), 2u);

  // The poll disagrees three ways at once: entry 1 modified, entry 2
  // vanished, entry 3 unknown — still one adopted-change bump.
  FlowEntry changed = entry(1);
  changed.actions = {sdn::drop()};
  sdn::StatsReply reply;
  reply.sw = SwitchId(1);
  reply.entries = {changed, entry(3)};
  snap.reconcile(reply, 100);

  EXPECT_EQ(snap.discrepancies().size(), 3u);
  EXPECT_EQ(snap.epoch(), 3u);
  EXPECT_EQ(snap.table_epoch(SwitchId(1)), 3u);
}

TEST(SnapshotEpoch, MeterOnlyReconcileDoesNotBump) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 10);
  ASSERT_EQ(snap.epoch(), 1u);

  sdn::StatsReply reply;
  reply.sw = SwitchId(1);
  reply.entries = {entry(1)};
  reply.meters = {{sdn::MeterId(1), sdn::MeterConfig{1000, 100}}};
  snap.reconcile(reply, 50);

  // Meters are outside the compiled model's inputs: stored, but no bump.
  EXPECT_EQ(snap.meters().at(SwitchId(1)).size(), 1u);
  EXPECT_EQ(snap.epoch(), 1u);
}

TEST(SnapshotEpoch, HistoryEvictionDoesNotBump) {
  SnapshotManager snap(/*history_limit=*/5);
  for (std::uint64_t i = 0; i < 20; ++i) {
    snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(i)}, i);
  }
  // Exactly one bump per content change, no extra bumps from the 15
  // evictions the small history limit forced.
  EXPECT_EQ(snap.epoch(), 20u);
  EXPECT_EQ(snap.history().size(), 5u);
}

TEST(SnapshotEpoch, DirtySinceIsTheChangedSwitchSet) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 1);
  snap.apply_update({SwitchId(2), FlowUpdateKind::Added, entry(1)}, 2);
  const std::uint64_t mark = snap.epoch();

  EXPECT_TRUE(snap.dirty_since(mark).empty());
  ASSERT_EQ(snap.dirty_since(0).size(), 2u);

  snap.apply_update({SwitchId(2), FlowUpdateKind::Added, entry(2)}, 3);
  const auto dirty = snap.dirty_since(mark);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], SwitchId(2));
}

TEST(SnapshotEpoch, CopyForksIdentityMoveTransfersIt) {
  SnapshotManager a;
  a.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 1);
  const std::uint64_t a_id = a.instance_id();

  SnapshotManager b = a;  // copy: same state, new identity
  const std::uint64_t b_id = b.instance_id();
  EXPECT_NE(b_id, a_id);
  EXPECT_EQ(b.epoch(), a.epoch());

  // Move: the identity travels with the content (its cache association
  // stays valid), and the moved-from side is re-identified.
  SnapshotManager c = std::move(b);
  EXPECT_EQ(c.instance_id(), b_id);
  EXPECT_NE(b.instance_id(), b_id);
  EXPECT_NE(b.instance_id(), a_id);
}

// --- Per-switch accessors ---------------------------------------------------

TEST(Snapshot, PerSwitchTableMatchesTableDump) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1, 5)}, 1);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(2, 9)}, 2);
  snap.apply_update({SwitchId(3), FlowUpdateKind::Added, entry(7, 1)}, 3);

  const auto dump = snap.table_dump();
  for (const SwitchId sw : snap.switch_ids()) {
    EXPECT_EQ(snap.table(sw), dump.at(sw));
  }
  EXPECT_TRUE(snap.table(SwitchId(99)).empty());
}

TEST(Snapshot, FindEntryPointLookup) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(4)}, 1);

  const sdn::FlowEntry* found = snap.find_entry(SwitchId(1), sdn::FlowEntryId(4));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, sdn::FlowEntryId(4));
  EXPECT_EQ(snap.find_entry(SwitchId(1), sdn::FlowEntryId(5)), nullptr);
  EXPECT_EQ(snap.find_entry(SwitchId(2), sdn::FlowEntryId(4)), nullptr);
}

TEST(Snapshot, MetersStoredFromPolls) {
  SnapshotManager snap;
  sdn::StatsReply reply;
  reply.sw = SwitchId(1);
  reply.meters = {{sdn::MeterId(1), sdn::MeterConfig{1000, 100}}};
  snap.reconcile(reply, 10);
  ASSERT_EQ(snap.meters().at(SwitchId(1)).size(), 1u);
  EXPECT_EQ(snap.meters().at(SwitchId(1))[0].second.rate_bps, 1000u);
}

// --- Bounded state ----------------------------------------------------------

TEST(SnapshotBounds, FlapEvidenceOutlivesTheWindow) {
  SnapshotManager snap;
  // Rule 1 lives 3 ms (a flap); rule 2 stays; rule 3 lives 40 ms, longer
  // than any detector asks about.
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)},
                    10 * sim::kMillisecond);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(2)},
                    11 * sim::kMillisecond);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(3)},
                    12 * sim::kMillisecond);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Removed, entry(1)},
                    13 * sim::kMillisecond);
  snap.apply_update({SwitchId(1), FlowUpdateKind::Removed, entry(3)},
                    52 * sim::kMillisecond);
  // A record one second later: every unpaired record before it is past the
  // window.
  snap.apply_update({SwitchId(2), FlowUpdateKind::Added, entry(9)},
                    1000 * sim::kMillisecond);

  ASSERT_EQ(snap.history().size(), 3u);
  EXPECT_EQ(snap.history()[0].entry.id, sdn::FlowEntryId(1));
  EXPECT_EQ(snap.history()[0].kind, FlowUpdateKind::Added);
  EXPECT_EQ(snap.history()[1].entry.id, sdn::FlowEntryId(1));
  EXPECT_EQ(snap.history()[1].kind, FlowUpdateKind::Removed);
  EXPECT_EQ(snap.history()[2].entry.id, sdn::FlowEntryId(9));
  const auto flapping = snap.short_lived(5 * sim::kMillisecond);
  ASSERT_EQ(flapping.size(), 1u);
  EXPECT_EQ(flapping[0].entry.id, sdn::FlowEntryId(1));
  EXPECT_TRUE(snap.short_lived(kHistoryWindow).size() == 1u);
}

TEST(SnapshotBounds, ShortLivedRejectsDwellBeyondTheWindow) {
  SnapshotManager snap;
  EXPECT_THROW(snap.short_lived(kHistoryWindow + 1), util::InvariantViolation);
}

TEST(SnapshotBounds, DivergentPollsKeepRingAtCapAndCountEveryOne) {
  SnapshotManager snap;
  snap.apply_update({SwitchId(1), FlowUpdateKind::Added, entry(1)}, 1);
  // A provider that keeps rewriting rule 1 behind the controller's back:
  // every poll finds it modified once more.
  constexpr std::uint64_t kPolls = 1000;
  for (std::uint64_t i = 0; i < kPolls; ++i) {
    FlowEntry changed = entry(1);
    changed.actions = {sdn::output(sdn::PortNo(i % 2 == 0 ? 2 : 1))};
    sdn::StatsReply reply;
    reply.sw = SwitchId(1);
    reply.entries = {changed};
    snap.reconcile(reply, 10 + i * sim::kMillisecond);
  }
  EXPECT_EQ(snap.discrepancy_counts().modified, kPolls);
  EXPECT_EQ(snap.discrepancy_counts().unknown, 0u);
  EXPECT_EQ(snap.discrepancy_counts().vanished, 0u);
  ASSERT_EQ(snap.discrepancies().size(), kDiscrepancyRing);
  // The ring holds the latest polls, oldest first.
  EXPECT_EQ(snap.discrepancies().back().t,
            10 + (kPolls - 1) * sim::kMillisecond);
  EXPECT_EQ(snap.discrepancies().front().t,
            10 + (kPolls - kDiscrepancyRing) * sim::kMillisecond);
}

TEST(SnapshotBounds, LongChurnKeepsMemoryBounded) {
  // 200k seeded events over ~100 s of simulated time on 8 switches: rules
  // that stay a while, rules that flap for 1-4 ms, and a divergent poll
  // every 500 events. At most 64 rules per switch are live at once.
  constexpr std::size_t kSwitches = 8;
  constexpr std::size_t kLivePerSwitch = 64;
  // Stated bound: the live tables, a full history and a full ring, at the
  // estimate's own per-item costs (FlowEntry + 64 B per entry, + 24 B per
  // history record, 96 B per discrepancy).
  constexpr std::size_t kPerEntry = sizeof(FlowEntry) + 64;
  constexpr std::size_t kBound = kSwitches * kLivePerSwitch * kPerEntry +
                                 kHistoryLimit * (kPerEntry + 24) +
                                 kDiscrepancyRing * 96;
  SnapshotManager snap;
  util::Rng rng(20161015);
  std::vector<std::vector<std::uint64_t>> live(kSwitches);
  std::uint64_t next_id = 1;
  sim::Time now = 0;
  std::size_t flaps = 0;
  std::uint64_t divergent_polls = 0;
  for (std::size_t step = 0; step < 200'000; ++step) {
    now += static_cast<sim::Time>(rng.uniform_int(0, 1000)) *
           sim::kMicrosecond;
    const std::size_t s = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kSwitches) - 1));
    const SwitchId sw(static_cast<std::uint32_t>(s + 1));
    auto& rules = live[s];
    if (step % 500 == 499 && !rules.empty()) {
      // The switch lost one rule behind the controller's back.
      sdn::StatsReply reply;
      reply.sw = sw;
      for (std::size_t k = 1; k < rules.size(); ++k) {
        reply.entries.push_back(entry(rules[k]));
      }
      snap.reconcile(reply, now);
      rules.erase(rules.begin());
      ++divergent_polls;
    } else if (rng.bernoulli(0.05)) {
      const std::uint64_t id = next_id++;
      snap.apply_update({sw, FlowUpdateKind::Added, entry(id)}, now);
      now += static_cast<sim::Time>(rng.uniform_int(1, 4)) * sim::kMillisecond;
      snap.apply_update({sw, FlowUpdateKind::Removed, entry(id)}, now);
      ++flaps;
    } else if (rules.size() < kLivePerSwitch && rng.bernoulli(0.5)) {
      rules.push_back(next_id++);
      snap.apply_update({sw, FlowUpdateKind::Added, entry(rules.back())}, now);
    } else if (!rules.empty()) {
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rules.size()) - 1));
      snap.apply_update({sw, FlowUpdateKind::Removed, entry(rules[k])}, now);
      rules.erase(rules.begin() + static_cast<long>(k));
    }
    if (step % 1000 == 0) {
      ASSERT_LE(snap.history().size(), kHistoryLimit) << "step " << step;
      ASSERT_LE(snap.approx_memory_bytes(), kBound) << "step " << step;
    }
  }
  EXPECT_GT(flaps, 5'000u);
  EXPECT_LE(snap.history().size(), kHistoryLimit);
  EXPECT_LE(snap.discrepancies().size(), kDiscrepancyRing);
  EXPECT_GT(divergent_polls, 300u);
  EXPECT_EQ(snap.discrepancy_counts().vanished, divergent_polls);
  EXPECT_LE(snap.approx_memory_bytes(), kBound);
  // The latest flap is still on record.
  EXPECT_FALSE(snap.short_lived(5 * sim::kMillisecond).empty());
}

}  // namespace
}  // namespace rvaas::core
