// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// perfbench_load: the benchmark's seeded load generator. Talks to a running
// perfbench_server only through the public client API — Publisher and
// Subscriber over Connection, LocalPublisher over shared memory — using at
// most four threads and four connections. It measures the client-visible
// latencies, takes GetStats snapshots at the edges of the measured window,
// tracks the reference computation over every raise it had acked, and
// writes one JSON document with all of it.
//
//   perfbench_load --workload W --seed N --port P --seconds S --out F
//                  [--shm NAME] [--trace 0|1] [--spans F]
//                  [--expect F] [--acks F]
//   perfbench_load --workload W --seed N --dump-inputs K   (bytes to stdout)

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "net/client.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sentinel;

struct Args {
  Workload workload = Workload::kStreamTcp;
  uint64_t seed = 1;
  uint16_t port = 0;
  double seconds = 10;
  std::string out, shm, spans, expect, acks;
  bool trace = false;
  long dump_inputs = -1;
};

SpanLog g_spans;

/// Open-loop pacing wants exact wake-ups: drop the default 50 us timer
/// slack for the calling thread.
void TightTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void SleepUntil(int64_t ns) {
  timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Measured-window samples: (completion time in ms since the window
/// started, value). run.py turns them into per-slice percentiles.
struct Samples {
  std::vector<std::pair<float, float>> rows;
  void Add(int64_t t_ns, int64_t window_start_ns, double value) {
    rows.emplace_back(static_cast<float>((t_ns - window_start_ns) / 1e6),
                      static_cast<float>(value));
  }
  void Append(const Samples& o) {
    rows.insert(rows.end(), o.rows.begin(), o.rows.end());
  }
  std::string Json() const {
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < rows.size(); ++i) {
      os << (i ? "," : "") << "[" << rows[i].first << "," << rows[i].second
         << "]";
    }
    os << "]";
    return os.str();
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

/// Shared run state. Producers only append to their own slot.
struct Run {
  Args args;
  Shape shape;
  int64_t t_begin = 0;  ///< Traffic starts (warm-up begins).
  int64_t t_start = 0;  ///< Measured window starts.
  int64_t t_end = 0;    ///< Measured window ends; no raise is due after it.

  struct Producer {
    explicit Producer(Reference r) : ref(std::move(r)) {}
    Reference ref;
    uint64_t attempted = 0, acked = 0, failed = 0, window_acked = 0;
    Samples ack_us;   ///< Raise-to-ack latency (stream: per window).
    Samples late_us;  ///< Open-loop generator lateness.
    std::vector<std::pair<uint64_t, int64_t>> due;   ///< notify: (seq, due).
    std::vector<std::pair<uint64_t, int64_t>> acks;  ///< durable: (seq, ack).
    std::vector<std::pair<int64_t, int64_t>> last;   ///< durable: (acct, val).
  };
  std::vector<std::unique_ptr<Producer>> producers;

  std::mutex fail_mu;
  std::vector<std::string> failures;
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(fail_mu);
    if (failures.size() < 20) failures.push_back(what);
  }

  std::atomic<bool> producers_done{false};
  std::atomic<uint64_t> owed_total{0};  ///< Set before producers_done.
  std::atomic<int> ready{0};  ///< Subscriber/reader set-up done.
  std::atomic<bool> go{false};  ///< The schedule (t_begin...) is set.

  // notify_rpc subscriber results.
  std::vector<std::tuple<uint32_t, uint64_t, int64_t>> received;
  // durable_replicated reader results.
  Samples scan_ms;
  uint64_t scans = 0, scans_failed = 0;
};

std::vector<RuleDef> RulesFor(Workload w) {
  return w == Workload::kNotifyRpc ? NotifyRules()
                                   : std::vector<RuleDef>{};
}

/// One producer: Poisson arrivals of shape.batch raises, each arrival sent
/// when due and timed from when it was due to its last ack. Batches go out
/// pipelined (stream_*); single raises as one synchronous request.
void Producer(Run* run, int p) {
  Run::Producer& me = *run->producers[p];
  const Workload w = run->args.workload;
  Generator gen(w, run->args.seed, p);
  std::unique_ptr<net::Connection> conn;
  std::unique_ptr<net::Publisher> pub;
  std::unique_ptr<net::LocalPublisher> local;
  if (w == Workload::kStreamShm) {
    net::LocalPublisher::Options o;
    o.segment = run->args.shm;
    o.port = run->args.port;
    o.window = kWindow;
    auto opened = net::LocalPublisher::Open(o);
    if (!opened.ok() || !(*opened)->via_shm()) {
      run->Fail("shm attach failed (TCP fallback is not allowed)");
      return;
    }
    local = std::move(opened).value();
  } else {
    auto dialed = net::Connection::Dial("127.0.0.1", run->args.port);
    if (!dialed.ok()) {
      run->Fail("dial: " + dialed.status().ToString());
      return;
    }
    conn = std::move(dialed).value();
    pub = std::make_unique<net::Publisher>(conn.get(), kWindow);
  }
  TightTimers();
  const size_t batch = run->shape.batch;
  std::vector<Raise> raises(batch);
  std::vector<net::RaiseEventMsg> msgs(batch);
  int64_t due = run->t_begin;
  for (;;) {
    due += static_cast<int64_t>(gen.NextGapSeconds() * 1e9);
    if (due >= run->t_end) break;
    for (size_t i = 0; i < batch; ++i) {
      raises[i] = gen.Next();
      msgs[i] = ToMsg(w, raises[i]);
      if (w == Workload::kNotifyRpc) me.due.emplace_back(raises[i].seq, due);
    }
    SleepUntil(due);
    const int64_t sent = NowNs();
    Status s;
    if (local) {
      s = local->RaisePipelined(msgs);
    } else if (batch > 1) {
      s = pub->RaisePipelined(msgs);
    } else {
      const net::RaiseEventMsg& m = msgs[0];
      s = pub->Raise(m.class_name, m.method, m.modifier, m.params, m.oid)
              .status();
    }
    const int64_t acked = NowNs();
    me.attempted += batch;
    if (!s.ok()) {
      me.failed += batch;
      run->Fail("raise: " + s.ToString());
      continue;
    }
    me.acked += batch;
    for (const Raise& r : raises) {
      me.ref.Apply(r);
      if (w == Workload::kDurableReplicated) {
        me.acks.emplace_back(r.seq, acked);
        me.last.emplace_back(r.account, r.val);
      }
    }
    if (due < run->t_start) continue;
    me.window_acked += batch;
    me.ack_us.Add(acked, run->t_start, (acked - due) / 1e3);
    me.late_us.Add(sent, run->t_start, (sent - due) / 1e3);
    if (g_spans.enabled()) {
      for (const Raise& r : raises) {
        if (r.seq % run->shape.trace_sample == 0) {
          g_spans.Record("client.raise", r.seq, sent, acked);
        }
      }
    }
  }
}

/// notify_rpc consumer: long-polls every subscribed "rule:" key.
void SubscriberLoop(Run* run) {
  auto dialed = net::Connection::Dial("127.0.0.1", run->args.port);
  if (!dialed.ok()) {
    run->Fail("subscriber dial: " + dialed.status().ToString());
    run->ready = 1;
    return;
  }
  std::unique_ptr<net::Connection> conn = std::move(dialed).value();
  net::Subscriber sub(conn.get());
  std::unordered_map<std::string, uint32_t> index;
  const std::vector<RuleDef> rules = RulesFor(run->args.workload);
  for (uint32_t i = 0; i < rules.size(); ++i) {
    if (!rules[i].subscribed) continue;
    const std::string key = "rule:" + rules[i].name;
    index[key] = i;
    Status s = sub.Subscribe(key);
    if (!s.ok()) run->Fail("subscribe: " + s.ToString());
  }
  run->ready = 1;
  // After the last raise, keep fetching until everything owed arrived (a
  // firing forwarded to an idle shard may take that shard's idle wait) or
  // a 3 s deadline passed.
  int64_t drain_deadline = 0;
  for (;;) {
    if (run->producers_done.load(std::memory_order_acquire)) {
      if (drain_deadline == 0) drain_deadline = NowNs() + 3000000000LL;
      if (NowNs() > drain_deadline ||
          run->received.size() >= run->owed_total.load()) {
        break;
      }
    }
    auto batch = sub.Fetch(1024, 20);
    const int64_t now = NowNs();
    if (!batch.ok()) {
      run->Fail("fetch: " + batch.status().ToString());
      break;
    }
    for (const net::Notification& n : *batch) {
      auto it = index.find(n.key);
      uint64_t seq = !n.params.empty() && n.params[0].is_int()
                         ? static_cast<uint64_t>(n.params[0].AsInt())
                         : 0;
      run->received.emplace_back(it == index.end() ? ~0u : it->second, seq,
                                 now);
    }
  }
}

/// durable_replicated reader: paged remote HistoryScan at a fixed pace,
/// walking the spilled history forward and starting over at its end.
void HistoryReader(Run* run) {
  auto dialed = net::Connection::Dial("127.0.0.1", run->args.port);
  if (!dialed.ok()) {
    run->Fail("reader dial: " + dialed.status().ToString());
    run->ready = 1;
    return;
  }
  std::unique_ptr<net::Connection> conn = std::move(dialed).value();
  net::Subscriber sub(conn.get());
  run->ready = 1;
  while (!run->go.load(std::memory_order_acquire)) std::this_thread::yield();
  TightTimers();
  constexpr int64_t kPeriodNs = 10000000;  // 100 pages/s.
  net::HistoryScanMsg query;
  query.limit = 256;
  int64_t due = run->t_begin;
  for (;;) {
    due += kPeriodNs;
    if (due >= run->t_end) break;
    SleepUntil(due);
    bool complete = true;
    net::HistoryScanMsg resume;
    const int64_t t0 = NowNs();
    auto page = sub.HistoryScan(query, &complete, &resume);
    const int64_t t1 = NowNs();
    ++run->scans;
    if (!page.ok()) {
      ++run->scans_failed;
      run->Fail("history scan: " + page.status().ToString());
      continue;
    }
    if (t0 >= run->t_start) {
      run->scan_ms.Add(t1, run->t_start, (t1 - t0) / 1e6);
      if (g_spans.enabled()) g_spans.Record("client.history_scan", 0, t0, t1);
    }
    if (complete) {
      query.after_seq = 0;
      query.after_shard = 0;
    } else {
      query = resume;
    }
  }
}

/// ns per RaiseEventMsg::Decode over this run's own frame bodies.
double DecodeNs(const Args& args) {
  std::vector<std::string> bodies;
  for (int p = 0; p < kProducers; ++p) {
    Generator gen(args.workload, args.seed, p);
    for (int i = 0; i < 20000; ++i) {
      Encoder enc;
      ToMsg(args.workload, gen.Next()).Encode(&enc);
      bodies.push_back(enc.buffer());
    }
  }
  std::vector<double> per_pass;
  size_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const int64_t t0 = NowNs();
    for (const std::string& b : bodies) {
      auto m = net::RaiseEventMsg::Decode(b);
      sink += m.ok() ? m->params.size() : 0;
    }
    per_pass.push_back(static_cast<double>(NowNs() - t0) / bodies.size());
  }
  std::sort(per_pass.begin(), per_pass.end());
  return sink == 0 ? 0 : per_pass[per_pass.size() / 2];
}

int DumpInputs(const Args& args) {
  for (int p = 0; p < kProducers; ++p) {
    Generator gen(args.workload, args.seed, p);
    for (long i = 0; i < args.dump_inputs; ++i) {
      Encoder enc;
      Raise r = gen.Next();
      ToMsg(args.workload, r).Encode(&enc);
      const std::string& b = enc.buffer();
      const uint32_t n = static_cast<uint32_t>(b.size());
      std::fwrite(&n, sizeof(n), 1, stdout);
      std::fwrite(b.data(), 1, b.size(), stdout);
    }
    // The open-loop schedule is an input too.
    for (long i = 0; i < args.dump_inputs; ++i) {
      const double gap = gen.NextGapSeconds();
      std::fwrite(&gap, sizeof(gap), 1, stdout);
    }
  }
  return std::fflush(stdout) == 0 ? 0 : 1;
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
    } else if (k == "--seed") {
      args.seed = std::stoull(v);
    } else if (k == "--port") {
      args.port = static_cast<uint16_t>(std::stoi(v));
    } else if (k == "--seconds") {
      args.seconds = std::stod(v);
    } else if (k == "--out") {
      args.out = v;
    } else if (k == "--shm") {
      args.shm = v;
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--spans") {
      args.spans = v;
    } else if (k == "--expect") {
      args.expect = v;
    } else if (k == "--acks") {
      args.acks = v;
    } else if (k == "--dump-inputs") {
      args.dump_inputs = std::stol(v);
    } else {
      std::cerr << "unknown flag " << k << "\n";
      return 2;
    }
  }
  if (args.dump_inputs >= 0) return DumpInputs(args);
  if (args.out.empty() || args.port == 0) {
    std::cerr << "--out and --port are required\n";
    return 2;
  }

  Run run;
  run.args = args;
  run.shape = ShapeOf(args.workload);
  if (args.trace) g_spans.Enable();
  for (int p = 0; p < kProducers; ++p) {
    run.producers.push_back(std::make_unique<Run::Producer>(
        Reference(args.workload, RulesFor(args.workload))));
  }

  auto stats_dial = net::Connection::Dial("127.0.0.1", args.port);
  if (!stats_dial.ok()) {
    std::cerr << "dial: " << stats_dial.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<net::Connection> stats_conn = std::move(stats_dial).value();
  auto stats = [&]() -> std::string {
    auto s = stats_conn->GetStats();
    if (!s.ok()) {
      run.Fail("GetStats: " + s.status().ToString());
      return "{}";
    }
    return *s;
  };

  std::vector<std::thread> threads;
  if (args.workload == Workload::kNotifyRpc) {
    threads.emplace_back(SubscriberLoop, &run);
  } else if (args.workload == Workload::kDurableReplicated) {
    threads.emplace_back(HistoryReader, &run);
  } else {
    run.ready = 1;
  }
  while (run.ready.load() == 0) std::this_thread::yield();
  const std::string stats0 = stats();

  run.t_begin = NowNs() + 20000000;  // 20 ms for the producers to dial.
  run.t_start = run.t_begin + static_cast<int64_t>(kWarmupSeconds * 1e9);
  run.t_end = run.t_start + static_cast<int64_t>(args.seconds * 1e9);
  run.go.store(true, std::memory_order_release);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back(Producer, &run, p);
  }
  SleepUntil(run.t_start);
  const std::string stats1 = stats();
  // Traced runs sample the ingress queue depth through GetStats.
  std::vector<double> depth;
  if (args.trace) {
    for (int64_t t = run.t_start; t < run.t_end; t += 20000000) {
      SleepUntil(t);
      auto s = stats_conn->GetStats(net::StatsRequestMsg::kGateway);
      if (!s.ok()) continue;
      size_t at = s->find("\"ingress_depth\":");
      if (at != std::string::npos) depth.push_back(std::stod(s->substr(at + 16)));
    }
  }
  for (auto& t : producers) t.join();
  uint64_t owed_total = 0;
  for (auto& p : run.producers) owed_total += p->ref.owed.size();
  run.owed_total.store(owed_total);
  run.producers_done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  // Rules triggered on another shard run when its worker next drains the
  // forwarding hop, which an idle worker does within its 50 ms idle wait;
  // the closing snapshot waits that out so the counts are final.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::string stats2 = stats();

  // --- Totals and the reference check ---------------------------------------
  uint64_t attempted = 0, acked = 0, failed = 0, window_acked = 0;
  uint64_t ref_raises = 0, ref_triggered = 0, ref_fired[4] = {0, 0, 0, 0};
  Samples ack_us, late_us;
  std::vector<Reference::Owed> owed;
  for (auto& p : run.producers) {
    attempted += p->attempted;
    acked += p->acked;
    failed += p->failed;
    window_acked += p->window_acked;
    ack_us.Append(p->ack_us);
    late_us.Append(p->late_us);
    ref_raises += p->ref.raises;
    ref_triggered += p->ref.triggered;
    for (int k = 0; k < 4; ++k) ref_fired[k] += p->ref.fired[k];
    owed.insert(owed.end(), p->ref.owed.begin(), p->ref.owed.end());
  }

  // Notifications: every owed (rule, seq) exactly once, nothing else.
  uint64_t missing = 0, duplicate = 0, unexpected = 0;
  Samples notify_us;
  if (args.workload == Workload::kNotifyRpc) {
    std::unordered_map<uint64_t, int64_t> due;
    for (auto& p : run.producers) {
      for (const auto& [seq, ns] : p->due) due[seq] = ns;
    }
    std::sort(owed.begin(), owed.end());
    std::vector<Reference::Owed> got;
    got.reserve(run.received.size());
    for (const auto& [rule, seq, ns] : run.received) {
      got.push_back({rule, seq});
      auto it = due.find(seq);
      if (it != due.end() && it->second >= run.t_start) {
        notify_us.Add(ns, run.t_start, (ns - it->second) / 1e3);
      }
    }
    std::sort(got.begin(), got.end());
    size_t i = 0, j = 0;
    while (i < owed.size() || j < got.size()) {
      if (j < got.size() && j > 0 && got[j] == got[j - 1]) {
        ++duplicate;
        ++j;
      } else if (j == got.size() || (i < owed.size() && owed[i] < got[j])) {
        ++missing;
        ++i;
      } else if (i == owed.size() || got[j] < owed[i]) {
        ++unexpected;
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
  }

  if (args.workload == Workload::kDurableReplicated) {
    // Last acked value per account (each account has one producer, which
    // acked its raises in order).
    std::ofstream expect(args.expect);
    std::map<int64_t, int64_t> last;
    for (auto& p : run.producers) {
      for (const auto& [acct, val] : p->last) last[acct] = val;
    }
    for (const auto& [acct, val] : last) expect << acct << " " << val << "\n";
    std::ofstream acks(args.acks);
    for (auto& p : run.producers) {
      for (const auto& [seq, ns] : p->acks) acks << seq << " " << ns << "\n";
    }
  }

  const double decode_ns = args.trace ? DecodeNs(args) : 0;
  if (args.trace && !args.spans.empty() && !g_spans.WriteCsv(args.spans)) {
    run.Fail("cannot write spans");
  }

  std::ostringstream os;
  os << "{\"rate_eps\":" << run.shape.rate_eps
     << ",\"producers\":" << kProducers
     << ",\"window\":" << kWindow
     << ",\"batch\":" << run.shape.batch
     << ",\"attempted\":" << attempted << ",\"acked\":" << acked
     << ",\"failed\":" << failed << ",\"window_acked\":" << window_acked
     << ",\"window_s\":" << (run.t_end - run.t_start) / 1e9
     << ",\"t_start_ns\":" << run.t_start
     << ",\"raise_ack_us\":" << ack_us.Json()
     << ",\"lateness_us\":" << late_us.Json()
     << ",\"notify_us\":" << notify_us.Json()
     << ",\"scan_ms\":" << run.scan_ms.Json()
     << ",\"scans\":" << run.scans << ",\"scans_failed\":" << run.scans_failed
     << ",\"notify\":{\"owed\":" << owed.size()
     << ",\"received\":" << run.received.size() << ",\"missing\":" << missing
     << ",\"duplicate\":" << duplicate << ",\"unexpected\":" << unexpected
     << "},\"reference\":{\"raises\":" << ref_raises
     << ",\"triggered\":" << ref_triggered << ",\"fired\":{";
  for (int k = 0; k < 4; ++k) {
    os << (k ? "," : "") << "\"" << KindName(static_cast<RuleDef::Kind>(k))
       << "\":" << ref_fired[k];
  }
  os << "}},\"decode_ns\":" << decode_ns << ",\"depth\":[";
  for (size_t i = 0; i < depth.size(); ++i) os << (i ? "," : "") << depth[i];
  os << "],\"failures\":[";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    os << (i ? "," : "") << JsonString(run.failures[i]);
  }
  os << "],\"stats0\":" << stats0 << ",\"stats1\":" << stats1
     << ",\"stats2\":" << stats2 << "}\n";
  std::ofstream out(args.out);
  out << os.str();
  out.close();
  return out ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
