// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// E12: events and rules as persistent first-class objects — full
// close/reopen cycles with functional rebinding, plus crash recovery of
// object state through the WAL.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/database.h"
#include "events/operators.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

/// Registers the schema and named functions a fresh process would register
/// at startup; returns the opened database.
std::unique_ptr<Database> OpenWorld(const std::string& dir, int* fired) {
  auto opened = Database::Open({.dir = dir});
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  if (!db->catalog()->HasClass("Stock")) {
    EXPECT_TRUE(db->RegisterClass(
        ClassBuilder("Stock").Reactive()
            .Method("SetPrice", {.end = true}).Build()).ok());
  }
  EXPECT_TRUE(db->functions()->RegisterCondition(
      "over-100", [](const RuleContext& ctx) {
        return ctx.params()[0] > Value(100.0);
      }).ok());
  EXPECT_TRUE(db->functions()->RegisterAction(
      "count-fire", [fired](RuleContext&) {
        ++*fired;
        return Status::OK();
      }).ok());
  return db;
}

TEST(PersistenceIntegrationTest, RulesEventsAndObjectsSurviveReopen) {
  TempDir dir("persist");
  int fired = 0;
  Oid stock_oid = kInvalidOid;

  // --- Session 1: define everything, persist, close. -----------------------
  {
    std::unique_ptr<Database> db = OpenWorld(dir.path(), &fired);
    ReactiveObject stock("Stock");
    stock.SetAttrRaw("ticker", Value("IBM"));
    ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
    stock_oid = stock.oid();

    auto event = db->CreatePrimitiveEvent("end Stock::SetPrice");
    ASSERT_TRUE(event.ok());
    ASSERT_TRUE(db->detector()->RegisterEvent("price", event.value()).ok());
    RuleSpec spec;
    spec.name = "expensive";
    spec.event_name = "price";
    spec.condition_name = "over-100";
    spec.action_name = "count-fire";
    auto rule = db->CreateRule(spec);
    ASSERT_TRUE(rule.ok());
    ASSERT_TRUE(db->ApplyRuleToInstance(rule.value(), &stock).ok());

    stock.RaiseEvent("SetPrice", EventModifier::kEnd, {Value(150.0)});
    EXPECT_EQ(fired, 1);

    ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
      return db->Persist(txn, &stock);
    }).ok());
    ASSERT_TRUE(db->SaveRulesAndEvents().ok());
    ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
    ASSERT_TRUE(db->Close().ok());
  }

  // --- Session 2: reopen; rule rebinds by name and works again. -------------
  {
    fired = 0;
    std::unique_ptr<Database> db = OpenWorld(dir.path(), &fired);
    // Schema survived.
    EXPECT_TRUE(db->catalog()->HasClass("Stock"));
    // Named event survived.
    ASSERT_TRUE(db->detector()->GetEvent("price").ok());
    // Rule survived but was loaded before the registry had its names (load
    // happens at Open); rebind by reloading now that names exist.
    ASSERT_TRUE(db->rules()->LoadAll(db->store()).ok());
    auto rule = db->rules()->GetRule("expensive");
    ASSERT_TRUE(rule.ok());
    EXPECT_TRUE(rule.value()->enabled());
    EXPECT_EQ(rule.value()->monitored_instances(),
              (std::vector<Oid>{stock_oid}));

    // Materialize the stock: the persisted instance-level subscription
    // reattaches automatically.
    auto stock = db->Materialize(nullptr, stock_oid);
    ASSERT_TRUE(stock.ok());
    EXPECT_EQ(stock.value()->GetAttr("ticker"), Value("IBM"));
    EXPECT_TRUE(stock.value()->IsSubscribed(rule.value().get()));

    stock.value()->RaiseEvent("SetPrice", EventModifier::kEnd,
                              {Value(200.0)});
    EXPECT_EQ(fired, 1);
    stock.value()->RaiseEvent("SetPrice", EventModifier::kEnd,
                              {Value(50.0)});
    EXPECT_EQ(fired, 1);  // Condition rebind filters correctly.
    ASSERT_TRUE(db->UnregisterLiveObject(stock.value().get()).ok());
    ASSERT_TRUE(db->Close().ok());
  }
}

TEST(PersistenceIntegrationTest, CompositeEventGraphSurvivesReopen) {
  TempDir dir("persist2");
  int fired = 0;
  {
    std::unique_ptr<Database> db = OpenWorld(dir.path(), &fired);
    auto p1 = db->CreatePrimitiveEvent("end Stock::SetPrice");
    ASSERT_TRUE(p1.ok());
    EventPtr seq = Seq(p1.value(), p1.value());
    ASSERT_TRUE(db->detector()->RegisterEvent("double-set", seq).ok());
    ASSERT_TRUE(db->SaveRulesAndEvents().ok());
    ASSERT_TRUE(db->Close().ok());
  }
  {
    std::unique_ptr<Database> db = OpenWorld(dir.path(), &fired);
    auto seq = db->detector()->GetEvent("double-set");
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(seq.value()->Describe(),
              "Seq(end Stock::SetPrice, end Stock::SetPrice)");
    ASSERT_TRUE(db->Close().ok());
  }
}

TEST(PersistenceIntegrationTest, CommittedStateSurvivesSimulatedCrash) {
  TempDir dir("crash");
  Oid oid = kInvalidOid;
  {
    auto opened = Database::Open({.dir = dir.path()});
    ASSERT_TRUE(opened.ok());
    auto db = std::move(opened).value();
    ASSERT_TRUE(db->RegisterClass(
        ClassBuilder("Doc").Reactive().Build()).ok());
    ReactiveObject doc("Doc");
    doc.SetAttrRaw("body", Value("committed text"));
    ASSERT_TRUE(db->RegisterLiveObject(&doc).ok());
    ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
      return db->Persist(txn, &doc);
    }).ok());
    oid = doc.oid();
    // Simulated crash: the Database object is dropped without Close();
    // only the destructor's best-effort close runs. To make it harsher,
    // copy the files mid-flight is not possible here, but the WAL-committed
    // state must be equivalent either way.
    db->UnregisterLiveObject(&doc).ok();
  }
  auto reopened = Database::Open({.dir = dir.path()});
  ASSERT_TRUE(reopened.ok());
  auto doc = reopened.value()->Materialize(nullptr, oid);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->GetAttr("body"), Value("committed text"));
  reopened.value()->UnregisterLiveObject(doc.value().get()).ok();
}

// A damaged WAL header must stop Database::Open with Corruption: replaying
// it as an empty log would silently drop every commit it holds.
TEST(PersistenceIntegrationTest, CorruptWalHeaderFailsOpen) {
  TempDir dir("walhdr");
  Database::Options options;
  options.dir = dir.path();
  {
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok());
    auto db = std::move(opened).value();
    ASSERT_TRUE(db->RegisterClass(
        ClassBuilder("Doc").Reactive().Build()).ok());
    ReactiveObject doc("Doc");
    doc.SetAttrRaw("body", Value("committed text"));
    ASSERT_TRUE(db->RegisterLiveObject(&doc).ok());
    ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
      return db->Persist(txn, &doc);
    }).ok());
    db->UnregisterLiveObject(&doc).ok();
  }
  {
    std::fstream f(dir.path() + "/wal.log",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(1);
    f.put('X');  // "SWAL" -> "SXAL".
  }
  auto reopened = Database::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST(PersistenceIntegrationTest, DeleteRuleRemovesPersistentImage) {
  TempDir dir("delrule");
  int fired = 0;
  {
    std::unique_ptr<Database> db = OpenWorld(dir.path(), &fired);
    auto event = db->CreatePrimitiveEvent("end Stock::SetPrice");
    ASSERT_TRUE(event.ok());
    RuleSpec spec;
    spec.name = "temp";
    spec.event = event.value();
    spec.action_name = "count-fire";
    ASSERT_TRUE(db->CreateRule(spec).ok());
    ASSERT_TRUE(db->SaveRulesAndEvents().ok());
    ASSERT_TRUE(db->DeleteRule("temp").ok());
    ASSERT_TRUE(db->Close().ok());
  }
  {
    std::unique_ptr<Database> db = OpenWorld(dir.path(), &fired);
    EXPECT_FALSE(db->rules()->HasRule("temp"));
    ASSERT_TRUE(db->Close().ok());
  }
}

}  // namespace
}  // namespace sentinel
