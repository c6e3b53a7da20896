// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// perfbench_server: the benchmark's server process. Embeds a Database and
// a GatewayServer (plus, on durable_replicated, a Replicator and an
// in-process hot-standby Follower), installs the workload's classes,
// objects, named conditions/actions and rules, and serves until told to
// stop. It never sees the seed: everything it installs is fixed per
// workload, and all traffic arrives over the public client transports.
//
// Protocol with the runner (run.py):
//   stdout  "READY <port>"            once set-up finished
//   stdin   "STOP [<expect-file>]"    traffic is over; run the end checks
//   report  JSON written to --report  set-up times, CPU, RSS, rule firing
//                                     counts, replication and crash checks
//
//   perfbench_server --workload W --dir D --report R [--spans S]
//                    [--trace 0|1] [--shm NAME]

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "events/operators.h"
#include "net/server.h"
#include "repl/follower.h"
#include "repl/replicator.h"
#include "rules/trace.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sentinel;
namespace fs = std::filesystem;

struct Args {
  Workload workload = Workload::kStreamTcp;
  std::string dir;
  std::string report;
  std::string spans;
  std::string shm;
  bool trace = false;
};

SpanLog g_spans;
uint64_t g_sample = 1;

bool Sampled(uint64_t seq) { return g_spans.enabled() && seq % g_sample == 0; }

uint64_t SeqOf(const ValueList& params) {
  return !params.empty() && params[0].is_int()
             ? static_cast<uint64_t>(params[0].AsInt())
             : 0;
}

double CpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

/// Restarts the peak-RSS count at the current RSS, so the peak covers
/// serving, not set-up.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS since ResetPeakRss (VmHWM), or over the process's life
/// (ru_maxrss) where /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    uint64_t kb = 0;
    if (key == "VmHWM:" && status >> kb) return kb / 1024.0;
  }
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

uint64_t CounterValue(Database* db, const std::string& name) {
  MetricsSnapshot snap = db->StatsSnapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

int64_t GaugeValue(Database* db, const std::string& name) {
  MetricsSnapshot snap = db->StatsSnapshot();
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0 : it->second;
}

int64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// The host's speed is measured in iterations per ns of a probe loop of
/// kProbeIters dependent multiply-adds, timed in thread CPU time. On a
/// shared host a vCPU's speed swings by half within seconds, and CPU and
/// set-up times swing with it; the runner scales them by this speed to a
/// fixed reference.
constexpr int kProbeIters = 20000;
volatile uint64_t g_probe_sink = 0;

int64_t ProbeNs() {
  const int64_t t0 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
  uint64_t x = 1;
  for (int i = 0; i < kProbeIters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  g_probe_sink = x;
  return ClockNs(CLOCK_THREAD_CPUTIME_ID) - t0;
}

double MedianSpeed(std::vector<int64_t>* probe_ns) {
  auto mid = probe_ns->begin() + probe_ns->size() / 2;
  std::nth_element(probe_ns->begin(), mid, probe_ns->end());
  return static_cast<double>(kProbeIters) / *mid;
}

/// The median speed of `probes` probes run back to back.
double HostSpeed(int probes) {
  std::vector<int64_t> ns;
  for (int i = 0; i < probes; ++i) ns.push_back(ProbeNs());
  return MedianSpeed(&ns);
}

/// Samples, every 250 ms while traffic runs, the server's CPU time less the
/// sampler's own, the raises it has executed, and the host's speed over the
/// period from a probe every kProbeEveryMs on the server's CPUs.
class CpuSampler {
 public:
  static constexpr int kProbeEveryMs = 5;
  static constexpr int kProbesPerSample = 50;

  ~CpuSampler() { Stop(); }

  void Start(Database* db) {
    db_ = db;
    running_ = true;
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    if (!running_.exchange(false)) return;
    thread_.join();
  }

  /// [[t_ns, CPU ns, raises, speed], ...].
  std::string Json() const {
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < samples_.size(); ++i) {
      const Sample& s = samples_[i];
      os << (i ? "," : "") << "[" << s.t_ns << "," << s.cpu_ns << ","
         << s.raises << "," << s.speed << "]";
    }
    return os.str() + "]";
  }

 private:
  struct Sample {
    int64_t t_ns, cpu_ns;
    uint64_t raises;
    double speed;
  };

  void Loop() {
    std::vector<int64_t> probes;
    while (running_) {
      probes.clear();
      for (int i = 0; i < kProbesPerSample && running_; ++i) {
        probes.push_back(ProbeNs());
        std::this_thread::sleep_for(std::chrono::milliseconds(kProbeEveryMs));
      }
      const double speed = MedianSpeed(&probes);
      const uint64_t raises = CounterValue(db_, "events.occurrences");
      samples_.push_back({NowNs(),
                          ClockNs(CLOCK_PROCESS_CPUTIME_ID) -
                              ClockNs(CLOCK_THREAD_CPUTIME_ID),
                          raises, speed});
    }
  }

  Database* db_ = nullptr;
  std::atomic<bool> running_{false};
  std::thread thread_;
  std::vector<Sample> samples_;
};

/// Server-side spans at the core/events boundary: the occurrence entry
/// (PreRaise) opens a raise on the raising thread, the first triggered
/// rule closes event detection, and the occurrence observer (PostRaise,
/// after the rule round) closes the raise.
class SpanTracer : public Tracer {
 public:
  void Trace(TraceEntry entry) override {
    if (entry.kind == TraceEntry::Kind::kOccurrence) {
      occ_ns_ = NowNs();
      trig_ns_ = 0;
    } else if (entry.kind == TraceEntry::Kind::kTriggered && trig_ns_ == 0) {
      trig_ns_ = NowNs();
    }
  }
  static int64_t occ_ns() { return occ_ns_; }
  static int64_t trig_ns() { return trig_ns_; }

 private:
  static thread_local int64_t occ_ns_;
  static thread_local int64_t trig_ns_;
};
thread_local int64_t SpanTracer::occ_ns_ = 0;
thread_local int64_t SpanTracer::trig_ns_ = 0;

/// One running instance of the workload's server side.
struct World {
  Workload workload;
  std::string dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<repl::Replicator> replicator;
  std::unique_ptr<net::GatewayServer> server;
  std::vector<std::unique_ptr<ReactiveObject>> objects;
  std::unordered_map<uint64_t, ReactiveObject*> by_oid;

  // Traced runs: occurrence observer and raises seen per shard.
  SpanTracer tracer;
  Database::ObserverHandle span_observer;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> shard_raises;

  // durable_replicated: the hot standby.
  std::string follower_dir;
  std::unique_ptr<Database> follower_db;
  std::unique_ptr<repl::Follower> follower;
  Database::ObserverHandle lag_observer;
  std::vector<std::pair<uint64_t, int64_t>> applied;  ///< (seq, ns).
  std::thread tailer;
  std::atomic<bool> tailing{false};
  uint64_t catchups = 0;
  uint64_t empty_catchups = 0;
  uint64_t resnapshots = 0;
  uint64_t catchup_errors = 0;
};

/// Account objects of durable_replicated, persisted once before set-up.
/// Account i is only ever written by the shard owning teller i % kTellers.
std::vector<std::unique_ptr<PersistentObject>> g_accounts;

Database::Options DbOptions(Workload w, const std::string& dir,
                            bool replica) {
  Database::Options o;
  o.dir = dir;
  o.raise_shards = kRaiseShards;
  if (w == Workload::kDurableReplicated) {
    o.buffer_pages = 128;               // ~1/8 of the account heap.
    o.group_commit_window_us = 200;
    o.checkpoint_wal_bytes = 256u << 10;  // ~5 s of traffic at 128 B/raise.
    o.history_spill = true;
    o.occurrence_log_capacity = 256;
    o.history_segment_bytes = 256u << 10;
    o.replica = replica;
  }
  return o;
}

Status RegisterClasses(Database* db, Workload w) {
  auto reactive = [db](const char* cls, const char* method) -> Status {
    if (db->catalog()->HasClass(cls)) return Status::OK();
    return db->RegisterClass(ClassBuilder(cls)
                                 .Reactive()
                                 .Method(method, {.begin = false, .end = true})
                                 .Build());
  };
  if (IsStream(w)) return reactive("Sensor", "Report");
  if (w == Workload::kNotifyRpc) {
    SENTINEL_RETURN_IF_ERROR(reactive("Meter", "Sample"));
    return reactive("Valve", "Adjust");
  }
  SENTINEL_RETURN_IF_ERROR(reactive("Teller", "Deposit"));
  if (db->catalog()->HasClass("Account")) return Status::OK();
  return db->RegisterClass(ClassBuilder("Account").Build());
}

/// Writes the kAccounts stored objects once (untimed; set-up then reopens
/// and recovers this database).
Status Populate(const std::string& dir) {
  SENTINEL_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> db,
      Database::Open(DbOptions(Workload::kDurableReplicated, dir, false)));
  SENTINEL_RETURN_IF_ERROR(RegisterClasses(db.get(), Workload::kDurableReplicated));
  g_accounts.clear();
  for (uint32_t i = 0; i < kAccounts; ++i) {
    g_accounts.push_back(std::make_unique<PersistentObject>("Account"));
    g_accounts.back()->SetAttrRaw("v", Value(int64_t{0}));
  }
  constexpr uint32_t kPerTxn = 1000;
  for (uint32_t base = 0; base < kAccounts; base += kPerTxn) {
    SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
      for (uint32_t i = base; i < std::min(kAccounts, base + kPerTxn); ++i) {
        SENTINEL_RETURN_IF_ERROR(db->Persist(txn, g_accounts[i].get()));
      }
      return Status::OK();
    }));
  }
  return db->Close();
}

Status AddLiveObject(World* w, const std::string& cls, uint64_t oid) {
  auto obj = std::make_unique<ReactiveObject>(cls, static_cast<Oid>(oid));
  SENTINEL_RETURN_IF_ERROR(w->db->RegisterLiveObject(obj.get()));
  w->by_oid[oid] = obj.get();
  w->objects.push_back(std::move(obj));
  return Status::OK();
}

Status RegisterFunctions(World* w) {
  FunctionRegistry* fns = w->db->functions();
  // params[1] % m == 0, under a rules.condition span.
  auto modulus = [](int64_t m) {
    return [m](const RuleContext& ctx) {
      const ValueList& p = ctx.params();
      const uint64_t seq = SeqOf(p);
      const int64_t t0 = Sampled(seq) ? NowNs() : 0;
      const bool holds = p.size() > 1 && p[1].is_int() && p[1].AsInt() % m == 0;
      if (t0 != 0) g_spans.Record("rules.condition", seq, t0, NowNs());
      return holds;
    };
  };
  for (int64_t m : {4, 16, 64}) {
    SENTINEL_RETURN_IF_ERROR(fns->RegisterCondition(
        "perfbench.mod" + std::to_string(m), modulus(m)));
  }
  // stream_*: the action writes nothing.
  SENTINEL_RETURN_IF_ERROR(
      fns->RegisterAction("perfbench.noop", [](RuleContext& ctx) {
        const uint64_t seq = SeqOf(ctx.params());
        if (Sampled(seq)) {
          const int64_t t0 = NowNs();
          g_spans.Record("rules.action", seq, t0, NowNs());
        }
        return Status::OK();
      }));
  // notify_rpc: the gateway's subscriber-notify action, under a span.
  SENTINEL_ASSIGN_OR_RETURN(RuleAction notify,
                            fns->GetAction(net::kNotifySubscribersAction));
  SENTINEL_RETURN_IF_ERROR(fns->RegisterAction(
      "perfbench.notify", [notify](RuleContext& ctx) {
        const uint64_t seq = SeqOf(ctx.params());
        if (!Sampled(seq)) return notify(ctx);
        ScopedSpan span(&g_spans, "rules.action", seq);
        return notify(ctx);
      }));
  // durable_replicated: update and persist one stored account.
  Database* db = w->db.get();
  SENTINEL_RETURN_IF_ERROR(
      fns->RegisterAction("perfbench.persist", [db](RuleContext& ctx) {
        const ValueList& p = ctx.params();
        if (p.size() < 3 || !p[2].is_int() || p[2].AsInt() < 0 ||
            p[2].AsInt() >= static_cast<int64_t>(g_accounts.size())) {
          return Status::InvalidArgument("bad account parameter");
        }
        const uint64_t seq = SeqOf(p);
        const bool traced = Sampled(seq);
        const int64_t t0 = traced ? NowNs() : 0;
        PersistentObject* account = g_accounts[p[2].AsInt()].get();
        account->SetAttrRaw("v", p[1]);
        const int64_t t1 = traced ? NowNs() : 0;
        Status s = db->Persist(ctx.txn, account);
        if (traced) {
          const int64_t t2 = NowNs();
          g_spans.Record("oodb.persist", seq, t1, t2);
          g_spans.Record("rules.action", seq, t0, t2);
        }
        return s;
      }));
  return Status::OK();
}

Status CreateRules(World* w) {
  Database* db = w->db.get();
  if (IsStream(w->workload)) {
    RuleSpec spec;
    spec.name = "sensor.sample";
    SENTINEL_ASSIGN_OR_RETURN(spec.event,
                              db->CreatePrimitiveEvent("end Sensor::Report"));
    spec.condition_name = "perfbench.mod64";
    spec.action_name = "perfbench.noop";
    return db->DeclareClassRule("Sensor", spec).status();
  }
  if (w->workload == Workload::kDurableReplicated) {
    for (uint32_t t = 0; t < kTellers; ++t) {
      RuleSpec spec;
      spec.name = "teller." + std::to_string(t);
      if (db->rules()->GetRule(spec.name).ok()) {
        SENTINEL_RETURN_IF_ERROR(db->DeleteRule(spec.name));
      }
      SENTINEL_ASSIGN_OR_RETURN(
          spec.event, db->CreatePrimitiveEvent("end Teller::Deposit"));
      spec.action_name = "perfbench.persist";
      SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, db->CreateRule(spec));
      SENTINEL_RETURN_IF_ERROR(
          db->ApplyRuleToInstance(rule, w->by_oid.at(TellerOid(t))));
    }
    return Status::OK();
  }
  auto primitive = [db](int cls) {
    return db->CreatePrimitiveEvent(std::string("end ") + NotifyClass(cls) +
                                    "::" + NotifyMethod(cls));
  };
  for (const RuleDef& def : NotifyRules()) {
    RuleSpec spec;
    spec.name = def.name;
    spec.action_name = "perfbench.notify";
    if (def.modulus == 4) spec.condition_name = "perfbench.mod4";
    if (def.modulus == 16) spec.condition_name = "perfbench.mod16";
    if (def.kind == RuleDef::kClass || def.kind == RuleDef::kInstance) {
      SENTINEL_ASSIGN_OR_RETURN(spec.event, primitive(def.cls));
    } else {
      SENTINEL_ASSIGN_OR_RETURN(EventPtr left, primitive(0));
      SENTINEL_ASSIGN_OR_RETURN(EventPtr right, primitive(1));
      spec.event = def.kind == RuleDef::kSeq ? Seq(left, right)
                                             : And(left, right);
    }
    if (def.kind == RuleDef::kClass) {
      SENTINEL_RETURN_IF_ERROR(
          db->DeclareClassRule(NotifyClass(def.cls), spec).status());
      continue;
    }
    SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, db->CreateRule(spec));
    SENTINEL_RETURN_IF_ERROR(db->ApplyRuleToInstance(rule, w->by_oid.at(def.oid)));
    if (def.kind != RuleDef::kInstance) {
      SENTINEL_RETURN_IF_ERROR(
          db->ApplyRuleToInstance(rule, w->by_oid.at(def.right_oid)));
    }
  }
  return Status::OK();
}

/// Follower tailing loop: one CatchUpOnce per pass (the repl.catchup span),
/// a 1 ms pause once caught up.
void TailLoop(World* w) {
  while (w->tailing.load(std::memory_order_acquire)) {
    const uint64_t before = w->follower->applied_ordinal();
    const bool bootstrapped = w->follower->snapshot_done();
    bool caught_up = false;
    Status s;
    {
      ScopedSpan span(&g_spans, "repl.catchup", 0);
      s = w->follower->CatchUpOnce(&caught_up);
    }
    ++w->catchups;
    if (!s.ok()) ++w->catchup_errors;
    if (!bootstrapped) ++w->resnapshots;
    if (w->follower->applied_ordinal() == before) ++w->empty_catchups;
    if (caught_up || !s.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

Status StartFollower(World* w) {
  std::error_code ec;
  fs::remove_all(w->follower_dir, ec);
  fs::create_directories(w->follower_dir);
  SENTINEL_ASSIGN_OR_RETURN(
      w->follower_db,
      Database::Open(DbOptions(w->workload, w->follower_dir, true)));
  // Replica lag: the time each replayed occurrence reaches the follower.
  w->applied.reserve(1 << 16);
  w->lag_observer = w->follower_db->AddOccurrenceObserver(
      [w](const EventOccurrence& occ) {
        w->applied.emplace_back(SeqOf(occ.params), NowNs());
      });
  repl::FollowerOptions fo;
  fo.port = w->server->port();
  w->follower = std::make_unique<repl::Follower>(w->follower_db.get(), fo);
  bool caught_up = false;
  for (int i = 0; i < 1000 && !caught_up; ++i) {
    SENTINEL_RETURN_IF_ERROR(w->follower->CatchUpOnce(&caught_up));
  }
  if (!caught_up) return Status::Internal("follower bootstrap did not finish");
  w->tailing.store(true, std::memory_order_release);
  w->tailer = std::thread(TailLoop, w);
  return Status::OK();
}

void StopTailer(World* w) {
  if (w->tailing.exchange(false)) w->tailer.join();
}

Status StartWorld(World* w, const Args& args, const std::string& dir) {
  w->workload = args.workload;
  w->dir = dir;
  w->shard_raises.clear();
  w->applied.clear();
  w->catchups = w->empty_catchups = w->resnapshots = w->catchup_errors = 0;
  const bool durable = w->workload == Workload::kDurableReplicated;
  SENTINEL_ASSIGN_OR_RETURN(w->db,
                            Database::Open(DbOptions(w->workload, dir, false)));
  SENTINEL_RETURN_IF_ERROR(RegisterClasses(w->db.get(), w->workload));
  if (IsStream(w->workload)) {
    for (int p = 0; p < kProducers; ++p) {
      for (uint32_t i = 0; i < kStreamOids; ++i) {
        SENTINEL_RETURN_IF_ERROR(AddLiveObject(w, "Sensor", StreamOid(p, i)));
      }
    }
  } else if (w->workload == Workload::kNotifyRpc) {
    for (int cls = 0; cls < 2; ++cls) {
      for (uint32_t i = 0; i < kNotifyObjects; ++i) {
        SENTINEL_RETURN_IF_ERROR(
            AddLiveObject(w, NotifyClass(cls), NotifyOid(cls, i)));
      }
    }
  } else {
    for (uint32_t t = 0; t < kTellers; ++t) {
      SENTINEL_RETURN_IF_ERROR(AddLiveObject(w, "Teller", TellerOid(t)));
    }
  }
  if (args.trace) {
    w->db->SetTracer(&w->tracer);
    for (size_t i = 0; i < w->db->raise_shards(); ++i) {
      w->shard_raises.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    }
    Database* db = w->db.get();
    w->span_observer = db->AddOccurrenceObserver(
        [w, db](const EventOccurrence& occ) {
          w->shard_raises[db->CurrentShardIndex()]->fetch_add(
              1, std::memory_order_relaxed);
          const uint64_t seq = SeqOf(occ.params);
          if (!Sampled(seq) || SpanTracer::occ_ns() == 0) return;
          g_spans.Record("core.raise", seq, SpanTracer::occ_ns(), NowNs());
          if (SpanTracer::trig_ns() != 0) {
            g_spans.Record("events.detect", seq, SpanTracer::occ_ns(),
                           SpanTracer::trig_ns());
          }
        });
  }
  net::ServerOptions so;
  so.auto_register_classes = false;
  if (w->workload == Workload::kStreamShm) so.shm_segment = args.shm;
  if (durable) {
    repl::ReplicatorOptions ro;
    ro.mirror_dir = dir + "/repllog";
    w->replicator = std::make_unique<repl::Replicator>(w->db.get(), ro);
    SENTINEL_RETURN_IF_ERROR(w->replicator->Start());
  }
  w->server = std::make_unique<net::GatewayServer>(w->db.get(), so);
  if (durable) w->server->SetReplication(w->replicator.get());
  SENTINEL_RETURN_IF_ERROR(w->server->Start());
  SENTINEL_RETURN_IF_ERROR(RegisterFunctions(w));
  SENTINEL_RETURN_IF_ERROR(CreateRules(w));
  if (durable) {
    w->follower_dir = dir + "-follower";
    SENTINEL_RETURN_IF_ERROR(StartFollower(w));
  }
  return Status::OK();
}

void StopWorld(World* w) {
  StopTailer(w);
  w->follower.reset();
  if (w->follower_db) w->follower_db->Close().ok();
  w->lag_observer.reset();
  w->follower_db.reset();
  if (w->server) w->server->Stop();
  if (w->replicator) w->replicator->Stop().ok();
  w->span_observer.reset();
  if (w->db) {
    for (auto& obj : w->objects) w->db->UnregisterLiveObject(obj.get()).ok();
    w->db->SetTracer(nullptr);
    w->db->Close().ok();
  }
  w->server.reset();
  w->replicator.reset();
  w->db.reset();
  w->objects.clear();
  w->by_oid.clear();
}

// --- End-of-run checks (durable_replicated) ----------------------------------

using ObjectSet = std::map<Oid, std::pair<std::string, std::string>>;

ObjectSet UserObjects(Database* db) {
  ObjectSet out;
  for (Oid oid : db->store()->AllOids()) {
    std::string cls, state;
    if (!db->store()->Get(nullptr, oid, &cls, &state).ok()) continue;
    if (cls == "Account") out[oid] = {cls, state};
  }
  return out;
}

bool SameHistory(const std::vector<EventOccurrence>& a,
                 const std::vector<EventOccurrence>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].timestamp.seq != b[i].timestamp.seq || a[i].oid != b[i].oid ||
        a[i].params != b[i].params) {
      return false;
    }
  }
  return true;
}

struct JsonOut {
  std::ostringstream os;
  bool first = true;
  void Key(const std::string& k) {
    os << (first ? "" : ",") << "\"" << k << "\":";
    first = false;
  }
  void Num(const std::string& k, double v) { Key(k); os << v; }
  void Int(const std::string& k, uint64_t v) { Key(k); os << v; }
  void Raw(const std::string& k, const std::string& v) { Key(k); os << v; }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string JsonList(const std::vector<double>& v) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str() + "]";
}

/// Follower convergence, then a simulated crash of the primary (the
/// wal.sync crash failpoint discards unsynced WAL bytes), a reopen, and the
/// ack ⇒ durable check against the generator's last acked value per account.
void DurableChecks(World* w, const std::string& expect_path, JsonOut* out,
                   std::vector<std::string>* errors) {
  StopTailer(w);
  bool caught_up = false;
  for (int i = 0; i < 1000 && !caught_up; ++i) {
    if (!w->follower->CatchUpOnce(&caught_up).ok()) break;
  }
  if (!caught_up) errors->push_back("follower did not catch up");

  // Quiesce the primary's raise path before comparing in-memory history.
  w->server->Stop();
  ObjectSet primary = UserObjects(w->db.get());
  ObjectSet replica = UserObjects(w->follower_db.get());
  std::vector<EventOccurrence> ph, fh;
  w->db->HistoryScan({}, &ph, true).ok();
  w->follower_db->HistoryScan({}, &fh, true).ok();
  const bool objects_equal = primary == replica;
  const bool history_equal = SameHistory(ph, fh);
  if (!objects_equal) errors->push_back("follower objects differ from primary");
  if (!history_equal) errors->push_back("follower history differs from primary");
  out->Int("converge_objects", primary.size());
  out->Int("converge_history_rows", ph.size());

  // Crash: the next WAL sync "kills" the process; Close then drops every
  // byte not yet synced.
  std::vector<Oid> account_oids;
  for (const auto& a : g_accounts) account_oids.push_back(a->oid());
  w->follower.reset();
  w->follower_db->Close().ok();
  w->lag_observer.reset();
  w->follower_db.reset();
  w->replicator->Stop().ok();
  FailPoints::Instance().EnableFromSpec("wal.sync=crash@hit(1)").ok();
  PersistentObject doomed("Account", account_oids[0]);
  doomed.SetAttrRaw("v", Value(int64_t{-1}));
  Status crash = w->db->WithTransaction(
      [&](Transaction* txn) { return w->db->Persist(txn, &doomed); });
  const bool crashed = FailPoints::Instance().crashed();
  for (auto& obj : w->objects) w->db->UnregisterLiveObject(obj.get()).ok();
  w->db->Close().ok();
  w->server.reset();
  w->replicator.reset();
  w->db.reset();
  FailPoints::Instance().Reset();
  if (!crashed || crash.ok()) errors->push_back("crash failpoint did not fire");

  const int64_t t0 = NowNs();
  auto reopened =
      Database::Open(DbOptions(Workload::kDurableReplicated, w->dir, false));
  const double reopen_ms = (NowNs() - t0) / 1e6;
  if (!reopened.ok()) {
    errors->push_back("reopen failed: " + reopened.status().ToString());
    return;
  }
  std::unique_ptr<Database> db = std::move(reopened).value();
  out->Num("recovery_ms", reopen_ms);
  out->Int("recovery_records", GaugeValue(db.get(), "storage.recovery_records"));

  uint64_t checked = 0, lost = 0;
  std::ifstream expect(expect_path);
  int64_t idx = 0, value = 0;
  while (expect >> idx >> value) {
    ++checked;
    std::string cls, state;
    PersistentObject image("Account");
    bool ok = idx >= 0 && idx < static_cast<int64_t>(account_oids.size()) &&
              db->store()->Get(nullptr, account_oids[idx], &cls, &state).ok();
    if (ok) {
      Decoder dec(state);
      ok = image.DeserializeState(&dec).ok() &&
           image.GetAttr("v") == Value(value);
    }
    if (!ok) ++lost;
  }
  if (checked == 0) errors->push_back("no acked writes to check");
  if (lost != 0) {
    errors->push_back(std::to_string(lost) + " acked writes lost after crash");
  }
  out->Int("durable_checked", checked);
  out->Int("durable_lost", lost);
  db->Close().ok();
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      if (!ParseWorkload(v, &args.workload)) {
        std::cerr << "unknown workload " << v << "\n";
        return 2;
      }
    } else if (k == "--dir") {
      args.dir = v;
    } else if (k == "--report") {
      args.report = v;
    } else if (k == "--spans") {
      args.spans = v;
    } else if (k == "--shm") {
      args.shm = v;
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else {
      std::cerr << "unknown flag " << k << "\n";
      return 2;
    }
  }
  if (args.dir.empty() || args.report.empty()) {
    std::cerr << "--dir and --report are required\n";
    return 2;
  }
  const Shape shape = ShapeOf(args.workload);
  g_sample = shape.trace_sample;
  const bool durable = args.workload == Workload::kDurableReplicated;

  JsonOut out;
  std::vector<std::string> errors;
  std::string base = args.dir + "/primary";
  if (durable) {
    fs::create_directories(base);
    const int64_t t0 = NowNs();
    Status s = Populate(base);
    if (!s.ok()) {
      std::cerr << "populate: " << s.ToString() << "\n";
      return 1;
    }
    out.Num("populate_s", (NowNs() - t0) / 1e9);
  }

  // Set-up is repeated; the last instance serves the traffic.
  World world;
  std::vector<double> setup_s, setup_speed;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    const bool last = rep + 1 == shape.setup_reps;
    if (last && args.trace) g_spans.Enable();
    const std::string dir =
        durable ? base : args.dir + "/primary" + std::to_string(rep);
    fs::create_directories(dir);
    const double speed0 = HostSpeed(5);
    const int64_t t0 = NowNs();
    Status s = StartWorld(&world, args, dir);
    setup_s.push_back((NowNs() - t0) / 1e9);
    setup_speed.push_back((speed0 + HostSpeed(5)) / 2);
    if (!s.ok()) {
      std::cerr << "set-up: " << s.ToString() << "\n";
      StopWorld(&world);
      return 1;
    }
    if (!last) {
      StopWorld(&world);
      if (!durable) {
        std::error_code ec;
        fs::remove_all(dir, ec);
      }
    }
  }
  const std::string wal = world.dir + "/wal.log";
  const uint64_t wal_ready = FileSize(wal);
  const uint64_t trunc_ready =
      CounterValue(world.db.get(), "storage.wal_truncated_bytes");
  const uint64_t occ_ready = CounterValue(world.db.get(), "events.occurrences");
  const double cpu_ready = CpuSeconds();
  ResetPeakRss();
  CpuSampler sampler;
  sampler.Start(world.db.get());
  std::cout << "READY " << world.server->port() << std::endl;

  std::string line;
  std::getline(std::cin, line);
  std::istringstream cmd(line);
  std::string verb, expect_path;
  cmd >> verb >> expect_path;

  sampler.Stop();
  const double cpu_s = CpuSeconds() - cpu_ready;
  const double rss_peak_mb = PeakRssMb();
  // Raises the server executed since ready: the occurrence counter, before
  // any end-of-run check adds its own.
  const uint64_t occ_run =
      CounterValue(world.db.get(), "events.occurrences") - occ_ready;
  const uint64_t wal_bytes =
      FileSize(wal) +
      CounterValue(world.db.get(), "storage.wal_truncated_bytes") -
      trunc_ready - wal_ready;

  out.Raw("setup_s", JsonList(setup_s));
  out.Raw("setup_speed", JsonList(setup_speed));
  out.Num("cpu_s", cpu_s);
  out.Raw("cpu_samples", sampler.Json());
  out.Num("rss_peak_mb", rss_peak_mb);
  out.Int("occurrences", occ_run);
  out.Int("wal_bytes", wal_bytes);

  uint64_t fired[4] = {0, 0, 0, 0};
  for (const RulePtr& rule : world.db->rules()->AllRules()) {
    const std::string& n = rule->name();
    RuleDef::Kind kind = RuleDef::kClass;
    if (n.rfind("inst.", 0) == 0 || n.rfind("teller.", 0) == 0) {
      kind = RuleDef::kInstance;
    } else if (n.rfind("seq.", 0) == 0) {
      kind = RuleDef::kSeq;
    } else if (n.rfind("and.", 0) == 0) {
      kind = RuleDef::kAnd;
    }
    fired[kind] += rule->fired_count();
  }
  std::ostringstream fired_json;
  fired_json << "{";
  for (int k = 0; k < 4; ++k) {
    fired_json << (k ? "," : "") << "\""
               << KindName(static_cast<RuleDef::Kind>(k)) << "\":" << fired[k];
  }
  fired_json << "}";
  out.Raw("fired", fired_json.str());

  if (args.trace) {
    std::ostringstream shards;
    shards << "[";
    for (size_t i = 0; i < world.shard_raises.size(); ++i) {
      shards << (i ? "," : "") << world.shard_raises[i]->load();
    }
    shards << "]";
    out.Raw("shard_raises", shards.str());
  }

  if (durable) {
    StopTailer(&world);
    out.Int("repl_catchups", world.catchups);
    out.Int("repl_empty_catchups", world.empty_catchups);
    out.Int("repl_resnapshots", world.resnapshots);
    out.Int("repl_applied", world.applied.size());
    if (world.catchup_errors != 0) {
      errors.push_back(std::to_string(world.catchup_errors) +
                       " follower catch-up passes failed");
    }
    const std::string lag_path = args.dir + "/applied.txt";
    if (std::FILE* f = std::fopen(lag_path.c_str(), "w")) {
      for (const auto& [seq, ns] : world.applied) {
        std::fprintf(f, "%llu %lld\n", static_cast<unsigned long long>(seq),
                     static_cast<long long>(ns));
      }
      std::fclose(f);
    }
    out.Raw("applied_file", JsonString(lag_path));
    if (verb != "STOP" || expect_path.empty()) {
      errors.push_back("no expectation file for the durability check");
    } else {
      DurableChecks(&world, expect_path, &out, &errors);
    }
  }
  StopWorld(&world);

  if (args.trace && !args.spans.empty() && !g_spans.WriteCsv(args.spans)) {
    errors.push_back("cannot write spans to " + args.spans);
  }
  std::ostringstream errs;
  errs << "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    errs << (i ? "," : "") << JsonString(errors[i]);
  }
  errs << "]";
  out.Raw("errors", errs.str());

  std::ofstream report(args.report);
  report << "{" << out.os.str() << "}\n";
  report.close();
  return report ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
