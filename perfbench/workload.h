// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// The benchmark's shared vocabulary: the four workloads, their process
// layout, the seeded input generators, the fixed rule catalogue the server
// program installs, and the reference computation that predicts — from the
// generated inputs alone — how many rules trigger and fire and which
// notifications a subscriber must receive.
//
// Both processes include this header. The server never sees the seed: it
// builds the seed-independent structure (objects, rules), and the load
// generator derives every raise from (seed, workload, producer).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/shard.h"
#include "net/wire.h"

namespace perfbench {

enum class Workload { kStreamTcp, kStreamShm, kNotifyRpc, kDurableReplicated };

inline bool ParseWorkload(const std::string& name, Workload* out) {
  static const std::pair<const char*, Workload> kNames[] = {
      {"stream_tcp", Workload::kStreamTcp},
      {"stream_shm", Workload::kStreamShm},
      {"notify_rpc", Workload::kNotifyRpc},
      {"durable_replicated", Workload::kDurableReplicated},
  };
  for (const auto& [n, w] : kNames) {
    if (name == n) {
      *out = w;
      return true;
    }
  }
  return false;
}

inline bool IsStream(Workload w) {
  return w == Workload::kStreamTcp || w == Workload::kStreamShm;
}

/// Process layout shared by the server program and the load generator, so
/// both sides agree on shard routing and object ownership: two raise
/// shards behind one IO thread, two raising producers, and on stream_*
/// pipelined windows of kWindow raises.
constexpr size_t kRaiseShards = 2;
constexpr int kProducers = 2;
constexpr size_t kWindow = 256;

/// Every workload is open loop: Poisson arrivals of `batch` raises at a
/// fixed offered rate, a third or less of what this layout sustains on a
/// 4-vCPU host (stream_* ~150K/s in batches of 16, notify_rpc ~34K/s,
/// durable_replicated ~1.3K/s), so the host's slow phases stay below
/// saturation. notify_rpc runs at a quarter: its producers have one request
/// outstanding each, and at 12K/s the host's slowest phases held them below
/// the offered rate.
struct Shape {
  size_t batch = 1;           ///< Raises per scheduled arrival.
  double rate_eps = 0;        ///< Offered rate, raises/s.
  uint64_t trace_sample = 1;  ///< Spans cover requests with seq % this == 0.
  int setup_reps = 1;         ///< Server set-ups per run; the last serves.
};

/// Traffic before the measured window starts.
constexpr double kWarmupSeconds = 1.0;

inline Shape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kStreamTcp:
    case Workload::kStreamShm:
      return {16, 50000, 64, 101};
    case Workload::kNotifyRpc:
      return {1, 8000, 1, 101};
    case Workload::kDurableReplicated:
      break;
  }
  return {1, 400, 1, 3};
}

// --- Object and rule catalogue (seed-independent) ---------------------------

/// Live objects get explicit oids far above anything the store allocates.
constexpr uint64_t kOidBase = 1ull << 32;

// stream_*: class Sensor, method Report; producer p raises uniformly over
// its own disjoint range of kStreamOids objects.
constexpr uint32_t kStreamOids = 4096;
inline uint64_t StreamOid(int producer, uint32_t i) {
  return kOidBase + static_cast<uint64_t>(producer) * kStreamOids + i;
}

// notify_rpc: classes Meter (method Sample) and Valve (method Adjust) with
// kNotifyObjects each. Object (cls, idx) belongs to producer idx % P, so a
// single producer thread — one sync request at a time — orders every raise
// on it.
constexpr uint32_t kNotifyObjects = 5000;
constexpr uint32_t kInstanceRules = 960;
constexpr uint32_t kCompositeRules = 32;  ///< Half Seq, half And.
inline const char* NotifyClass(int cls) { return cls == 0 ? "Meter" : "Valve"; }
inline const char* NotifyMethod(int cls) {
  return cls == 0 ? "Sample" : "Adjust";
}
inline uint64_t NotifyOid(int cls, uint32_t idx) {
  return kOidBase + static_cast<uint64_t>(cls) * 1000000 + idx;
}

/// Producer p's objects in popularity order: rank r is (cls r % 2, idx from
/// a fixed permutation), so Zipf rank 0 is the hottest object. The order is
/// fixed, which lets the rule catalogue aim composites at hot objects.
inline std::pair<int, uint32_t> NotifyObjectAtRank(int producer,
                                                   uint32_t rank) {
  const uint32_t per_class = kNotifyObjects / kProducers;
  const int cls = static_cast<int>(rank % 2);
  const uint64_t j = (static_cast<uint64_t>(rank / 2) * 2654435761ull) %
                     per_class;
  return {cls, static_cast<uint32_t>(producer + kProducers * j)};
}
constexpr uint32_t kNotifyRanks = 2 * (kNotifyObjects / kProducers);

// durable_replicated: kTellers live Teller objects (method Deposit); each
// raise's rule persists one of kAccounts stored Account objects. Account i
// belongs to teller i % kTellers and teller t to producer t % P, so every
// account is written by exactly one shard and one producer.
constexpr uint32_t kTellers = 64;
constexpr uint32_t kAccounts = 100000;
inline uint64_t TellerOid(uint32_t t) { return kOidBase + t; }

struct RuleDef {
  enum Kind { kClass, kInstance, kSeq, kAnd };
  std::string name;
  Kind kind = kClass;
  int cls = 0;             ///< kClass/kInstance: triggering class.
  uint64_t oid = 0;        ///< kInstance: monitored object; composites: left.
  uint64_t right_oid = 0;  ///< Composites: right (a Valve).
  int producer = 0;        ///< Composites: the producer owning both sides.
  uint32_t modulus = 1;    ///< Condition: params[1] % modulus == 0.
  bool subscribed = false; ///< The subscriber long-polls "rule:<name>".
};

inline const char* KindName(RuleDef::Kind k) {
  switch (k) {
    case RuleDef::kClass: return "class";
    case RuleDef::kInstance: return "instance";
    case RuleDef::kSeq: return "seq";
    case RuleDef::kAnd: return "and";
  }
  return "?";
}

/// The ~1000 notify_rpc rules. Most monitor one object, so almost every
/// raise reaches only the two class-level rules (paper §3.5: a rule is
/// checked only against objects it subscribed to). Composites pair a Meter
/// and a Valve of the same producer on the same shard, so their firing
/// order — and hence count — follows from the generated sequence.
inline std::vector<RuleDef> NotifyRules() {
  std::vector<RuleDef> rules;
  for (int cls = 0; cls < 2; ++cls) {
    RuleDef r;
    r.name = std::string("cls.") + NotifyClass(cls);
    r.kind = RuleDef::kClass;
    r.cls = cls;
    r.modulus = 16;
    r.subscribed = cls == 0;
    rules.push_back(r);
  }
  for (uint32_t k = 0; k < kInstanceRules; ++k) {
    RuleDef r;
    r.name = "inst." + std::to_string(k);
    r.kind = RuleDef::kInstance;
    r.cls = static_cast<int>(k % 2);
    r.oid = NotifyOid(r.cls, (k / 2) * 5 + k % 5);
    r.modulus = 4;
    r.subscribed = k % 8 == 0;
    rules.push_back(r);
  }
  const int P = kProducers;
  for (uint32_t j = 0; j < kCompositeRules; ++j) {
    RuleDef r;
    r.kind = j < kCompositeRules / 2 ? RuleDef::kSeq : RuleDef::kAnd;
    r.name = std::string(r.kind == RuleDef::kSeq ? "seq." : "and.") +
             std::to_string(j);
    r.producer = static_cast<int>(j % P);
    // Left: the producer's (j / P)-th hottest Meter; right: the hottest
    // Valve not yet used that routes to the same shard.
    const uint32_t left_rank = 2 * (j / P);
    auto left = NotifyObjectAtRank(r.producer, left_rank);
    r.oid = NotifyOid(left.first, left.second);
    const size_t shard = sentinel::ShardIndexForOid(r.oid, kRaiseShards);
    for (uint32_t rank = 1 + 2 * (j / P); rank < kNotifyRanks; rank += 2) {
      auto right = NotifyObjectAtRank(r.producer, rank);
      uint64_t oid = NotifyOid(right.first, right.second);
      if (sentinel::ShardIndexForOid(oid, kRaiseShards) == shard) {
        r.right_oid = oid;
        break;
      }
    }
    r.subscribed = true;
    rules.push_back(r);
  }
  return rules;
}

// --- Seeded inputs -----------------------------------------------------------

/// splitmix64: tiny, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in (0, 1].
  double Unit() { return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// One generated raise. params = [seq, val] (+ [account] on durable).
struct Raise {
  uint64_t seq = 0;  ///< Request id, unique across producers of a run.
  int cls = 0;
  uint64_t oid = 0;
  int64_t val = 0;
  int64_t account = -1;
};

inline sentinel::net::RaiseEventMsg ToMsg(Workload w, const Raise& r) {
  using sentinel::Value;
  sentinel::net::RaiseEventMsg m;
  m.oid = r.oid;
  m.modifier = sentinel::EventModifier::kEnd;
  m.params = {Value(static_cast<int64_t>(r.seq)), Value(r.val)};
  if (IsStream(w)) {
    m.class_name = "Sensor";
    m.method = "Report";
  } else if (w == Workload::kNotifyRpc) {
    m.class_name = NotifyClass(r.cls);
    m.method = NotifyMethod(r.cls);
  } else {
    m.class_name = "Teller";
    m.method = "Deposit";
    m.params.push_back(Value(r.account));
  }
  return m;
}

/// Deterministic raise stream of one producer.
class Generator {
 public:
  Generator(Workload w, uint64_t seed, int producer)
      : w_(w),
        shape_(ShapeOf(w)),
        producer_(producer),
        rng_(seed * 0x100000001b3ull + static_cast<uint64_t>(producer) + 1),
        gap_rng_(seed ^ (0xa5a5a5a5ull + static_cast<uint64_t>(producer))) {
    if (w == Workload::kNotifyRpc) {
      // Zipf(s = 1) over the producer's objects in rank order.
      cdf_.resize(kNotifyRanks);
      double total = 0;
      for (uint32_t r = 0; r < kNotifyRanks; ++r) {
        cdf_[r] = (total += 1.0 / (r + 1));
      }
      for (double& c : cdf_) c /= total;
    }
  }

  Raise Next() {
    Raise r;
    r.seq = (static_cast<uint64_t>(producer_ + 1) << 40) | next_++;
    switch (w_) {
      case Workload::kStreamTcp:
      case Workload::kStreamShm:
        r.oid = StreamOid(producer_,
                          static_cast<uint32_t>(rng_.Below(kStreamOids)));
        r.val = static_cast<int64_t>(rng_.Below(64));
        break;
      case Workload::kNotifyRpc: {
        const double u = rng_.Unit();
        const uint32_t rank = static_cast<uint32_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        auto obj = NotifyObjectAtRank(
            producer_,
            std::min<uint32_t>(rank, static_cast<uint32_t>(cdf_.size() - 1)));
        r.cls = obj.first;
        r.oid = NotifyOid(obj.first, obj.second);
        r.val = static_cast<int64_t>(rng_.Below(64));
        break;
      }
      case Workload::kDurableReplicated: {
        const uint32_t teller = static_cast<uint32_t>(
            producer_ + kProducers * rng_.Below(kTellers / kProducers));
        r.oid = TellerOid(teller);
        r.account = static_cast<int64_t>(
            teller + kTellers * rng_.Below(kAccounts / kTellers));
        r.val = static_cast<int64_t>(r.seq);
        break;
      }
    }
    return r;
  }

  /// Next open-loop inter-arrival gap: Poisson arrivals of batches at this
  /// producer's share of the offered rate.
  double NextGapSeconds() {
    const double rate = shape_.rate_eps / kProducers / shape_.batch;
    return -std::log(gap_rng_.Unit()) / rate;
  }

 private:
  Workload w_;
  Shape shape_;
  int producer_;
  Rng rng_;
  Rng gap_rng_;
  uint64_t next_ = 0;
  std::vector<double> cdf_;
};

// --- Reference computation ---------------------------------------------------

/// Predicts the rule engine's work from the raises one producer had acked,
/// in order: triggered dispatches, firings per rule kind, and — for
/// subscribed rules — the (rule, terminating seq) notifications owed.
/// Composites use the chronicle context: a Seq terminator consumes the
/// oldest pending initiator; an And occurrence consumes the oldest pending
/// occurrence of the other side.
class Reference {
 public:
  struct Owed {
    uint32_t rule;
    uint64_t seq;
    bool operator<(const Owed& o) const {
      return rule != o.rule ? rule < o.rule : seq < o.seq;
    }
    bool operator==(const Owed& o) const {
      return rule == o.rule && seq == o.seq;
    }
  };

  Reference(Workload w, std::vector<RuleDef> rules)
      : w_(w), rules_(std::move(rules)), pending_(rules_.size(), 0) {
    for (uint32_t i = 0; i < rules_.size(); ++i) {
      const RuleDef& r = rules_[i];
      if (r.kind == RuleDef::kInstance) by_oid_.push_back({r.oid, i});
      if (r.kind == RuleDef::kSeq || r.kind == RuleDef::kAnd) {
        by_oid_.push_back({r.oid, i});
        by_oid_.push_back({r.right_oid, i});
      }
    }
    std::sort(by_oid_.begin(), by_oid_.end());
  }

  void Apply(const Raise& r) {
    ++raises;
    if (IsStream(w_)) {
      ++triggered;
      if (r.val % 64 == 0) ++fired[RuleDef::kClass];
      return;
    }
    if (w_ == Workload::kDurableReplicated) {
      ++triggered;
      ++fired[RuleDef::kInstance];
      return;
    }
    // notify_rpc: the class-level rule of the raised class ...
    for (uint32_t i = 0; i < 2; ++i) {
      if (rules_[i].cls == r.cls) Trigger(i, r);
    }
    // ... plus whatever monitors this particular object.
    auto it = std::lower_bound(by_oid_.begin(), by_oid_.end(),
                               std::make_pair(r.oid, uint32_t{0}));
    for (; it != by_oid_.end() && it->first == r.oid; ++it) {
      const uint32_t i = it->second;
      const RuleDef& rule = rules_[i];
      if (rule.kind == RuleDef::kInstance) {
        Trigger(i, r);
        continue;
      }
      const bool left = r.oid == rule.oid;
      int64_t& p = pending_[i];  // > 0: lefts pending; < 0: rights pending.
      if (rule.kind == RuleDef::kSeq) {
        if (left) {
          ++p;
        } else if (p > 0) {
          --p;
          Trigger(i, r);
        }
      } else if (left ? p < 0 : p > 0) {
        p += left ? 1 : -1;
        Trigger(i, r);
      } else {
        p += left ? 1 : -1;
      }
    }
  }

  uint64_t raises = 0;
  uint64_t triggered = 0;
  uint64_t fired[4] = {0, 0, 0, 0};  ///< Indexed by RuleDef::Kind.
  std::vector<Owed> owed;

 private:
  void Trigger(uint32_t i, const Raise& r) {
    ++triggered;
    const RuleDef& rule = rules_[i];
    if (r.val % rule.modulus != 0) return;
    ++fired[rule.kind];
    if (rule.subscribed) owed.push_back({i, r.seq});
  }

  Workload w_;
  std::vector<RuleDef> rules_;
  std::vector<int64_t> pending_;
  std::vector<std::pair<uint64_t, uint32_t>> by_oid_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
