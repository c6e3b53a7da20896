// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// perfbench_selftest: checks the benchmark's own logic without a server —
// the reference computation on hand-checked raise streams, determinism of
// the seeded generators, and the invariants the rule catalogue relies on.
// Runs every check and exits nonzero if any failed. Run by
// test_perfbench.py.

#include <cstdio>
#include <string>
#include <vector>

#include "common/codec.h"
#include "workload.h"

namespace perfbench {
namespace {

int g_failures = 0;
int g_checks = 0;

void Check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

template <typename T>
void CheckEq(const T& got, const T& want, const std::string& what) {
  Check(got == want, what + ": got " + std::to_string(got) + ", want " +
                         std::to_string(want));
}

Raise At(uint64_t seq, int cls, uint64_t oid, int64_t val) {
  Raise r;
  r.seq = seq;
  r.cls = cls;
  r.oid = oid;
  r.val = val;
  return r;
}

/// A five-rule catalogue small enough to evaluate by hand.
std::vector<RuleDef> HandRules(uint64_t a, uint64_t b) {
  std::vector<RuleDef> rules(5);
  rules[0] = {"cls.Meter", RuleDef::kClass, 0, 0, 0, 0, 16, true};
  rules[1] = {"cls.Valve", RuleDef::kClass, 1, 0, 0, 0, 16, false};
  rules[2] = {"inst.a", RuleDef::kInstance, 0, a, 0, 0, 4, true};
  rules[3] = {"seq.ab", RuleDef::kSeq, 0, a, b, 0, 1, true};
  rules[4] = {"and.ab", RuleDef::kAnd, 0, a, b, 0, 1, false};
  return rules;
}

void ReferenceOnHandStream() {
  const uint64_t a = NotifyOid(0, 7), b = NotifyOid(1, 9);
  Reference ref(Workload::kNotifyRpc, HandRules(a, b));
  // A0 A5 B16 B3 A4 B32, worked by hand:
  //   cls.Meter: 3 triggers, fires on A0            -> 1
  //   cls.Valve: 3 triggers, fires on B16, B32      -> 2
  //   inst.a:    3 triggers, fires on A0, A4        -> 2
  //   seq.ab:    B16 takes A0, B3 takes A5, B32 takes A4 -> 3
  //   and.ab:    same pairing as seq.ab             -> 3
  const Raise stream[] = {At(1, 0, a, 0),  At(2, 0, a, 5), At(3, 1, b, 16),
                          At(4, 1, b, 3),  At(5, 0, a, 4), At(6, 1, b, 32)};
  for (const Raise& r : stream) ref.Apply(r);
  CheckEq<uint64_t>(ref.raises, 6, "hand stream raises");
  CheckEq<uint64_t>(ref.triggered, 15, "hand stream triggered");
  CheckEq<uint64_t>(ref.fired[RuleDef::kClass], 3, "hand stream class fired");
  CheckEq<uint64_t>(ref.fired[RuleDef::kInstance], 2, "hand stream inst fired");
  CheckEq<uint64_t>(ref.fired[RuleDef::kSeq], 3, "hand stream seq fired");
  CheckEq<uint64_t>(ref.fired[RuleDef::kAnd], 3, "hand stream and fired");
  // Owed notifications: the subscribed rules only (and.ab is not).
  const std::vector<Reference::Owed> want = {
      {0, 1}, {2, 1}, {2, 5}, {3, 3}, {3, 4}, {3, 6}};
  std::vector<Reference::Owed> got = ref.owed;
  std::sort(got.begin(), got.end());
  Check(got == want, "hand stream owed notifications");

  // B before A: a sequence needs its initiator first, a conjunction does
  // not.
  Reference order(Workload::kNotifyRpc, HandRules(a, b));
  order.Apply(At(1, 1, b, 1));
  order.Apply(At(2, 0, a, 1));
  CheckEq<uint64_t>(order.fired[RuleDef::kSeq], 0, "B-then-A seq fired");
  CheckEq<uint64_t>(order.fired[RuleDef::kAnd], 1, "B-then-A and fired");
  // A second B completes the sequence with that A; the conjunction already
  // consumed it and now holds the B alone.
  order.Apply(At(3, 1, b, 1));
  CheckEq<uint64_t>(order.fired[RuleDef::kSeq], 1, "B-A-B seq fired");
  CheckEq<uint64_t>(order.fired[RuleDef::kAnd], 1, "B-A-B and fired");

  // stream_*: one class rule firing when val % 64 == 0.
  Reference stream_ref(Workload::kStreamTcp, {});
  for (int64_t v : {0, 1, 63, 0}) stream_ref.Apply(At(1, 0, StreamOid(0, 0), v));
  CheckEq<uint64_t>(stream_ref.triggered, 4, "stream triggered");
  CheckEq<uint64_t>(stream_ref.fired[RuleDef::kClass], 2, "stream fired");
}

std::string Encoded(Workload w, uint64_t seed, int producer, int n) {
  Generator gen(w, seed, producer);
  std::string out;
  for (int i = 0; i < n; ++i) {
    sentinel::Encoder enc;
    ToMsg(w, gen.Next()).Encode(&enc);
    out += enc.buffer();
    out += std::to_string(gen.NextGapSeconds());
  }
  return out;
}

void GeneratorsAreDeterministic() {
  for (Workload w : {Workload::kStreamTcp, Workload::kNotifyRpc,
                     Workload::kDurableReplicated}) {
    Check(Encoded(w, 42, 0, 2000) == Encoded(w, 42, 0, 2000),
          "same seed, same bytes");
    Check(Encoded(w, 42, 0, 2000) != Encoded(w, 43, 0, 2000),
          "different seed, different bytes");
    Check(Encoded(w, 42, 0, 200) != Encoded(w, 42, 1, 200),
          "producers draw different streams");
  }
  // Producers own disjoint objects, as the per-object order needs.
  for (Workload w : {Workload::kStreamTcp, Workload::kNotifyRpc,
                     Workload::kDurableReplicated}) {
    Generator g0(w, 5, 0), g1(w, 5, 1);
    bool disjoint = true;
    for (int i = 0; i < 5000; ++i) {
      const Raise r0 = g0.Next(), r1 = g1.Next();
      if (w == Workload::kNotifyRpc) {
        disjoint &= (r0.oid - kOidBase) % 1000000 % kProducers == 0;
        disjoint &= (r1.oid - kOidBase) % 1000000 % kProducers == 1;
      } else if (w == Workload::kDurableReplicated) {
        disjoint &= r0.account % kTellers % kProducers == 0;
        disjoint &= (r0.oid - kOidBase) == static_cast<uint64_t>(r0.account % kTellers);
      } else {
        disjoint &= r0.oid < StreamOid(1, 0) && r1.oid >= StreamOid(1, 0);
      }
    }
    Check(disjoint, "producers own disjoint objects");
  }
}

void CatalogueInvariants() {
  const std::vector<RuleDef> rules = NotifyRules();
  CheckEq<size_t>(rules.size(), 2 + kInstanceRules + kCompositeRules,
                  "notify_rpc rule count");
  bool composites_ok = true;
  for (const RuleDef& r : rules) {
    if (r.kind != RuleDef::kSeq && r.kind != RuleDef::kAnd) continue;
    composites_ok &= r.right_oid != 0;
    composites_ok &= sentinel::ShardIndexForOid(r.oid, kRaiseShards) ==
                     sentinel::ShardIndexForOid(r.right_oid, kRaiseShards);
    composites_ok &= (r.oid - kOidBase) % 1000000 % kProducers ==
                     static_cast<uint64_t>(r.producer);
    composites_ok &= (r.right_oid - kOidBase) % 1000000 % kProducers ==
                     static_cast<uint64_t>(r.producer);
  }
  Check(composites_ok, "composites pair same-producer, same-shard objects");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::ReferenceOnHandStream();
  perfbench::GeneratorsAreDeterministic();
  perfbench::CatalogueInvariants();
  std::printf("selftest: %d/%d checks passed\n",
              perfbench::g_checks - perfbench::g_failures,
              perfbench::g_checks);
  return perfbench::g_failures == 0 ? 0 : 1;
}
