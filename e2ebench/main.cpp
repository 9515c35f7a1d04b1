// sitm_e2e: end-to-end benchmark of the sitm flow (see NOTES.md).
//
//   sitm_e2e --workload corpus|ladder-mt|wide-lib|serve-zipf --seed N
//            --seconds S --trace 0|1 [--smoke] [--root DIR] [--out DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// replays every input through the layers' public functions with spans and
// reports the per-layer metrics (the trace is written under --out).  Every
// output is checked outside the timed region.  The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
// code is 1 when any output failed its check (or, traced, when the spans do
// not reconcile with the flow's stage times), 2 on a usage or set-up error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

using namespace sitm;

/// Zipf exponent of the serve-zipf request mix.
constexpr double kZipfExponent = 1.0;
/// Set-up is timed in blocks of back-to-back set-ups, each block at least
/// kSetupBlockMs of set-up time, one block after every pass or serve
/// segment; setup_s is the median over blocks of the time per set-up.
constexpr double kSetupBlockMs = 50;
/// Host-speed normalization (NOTES.md, "Host drift"): every timing is
/// divided by the ratio of the calibration loop's time, taken right after
/// the pass or serve segment it belongs to, to kCalibrationRefMs, its
/// median on the reference host (a 4-vCPU "Intel(R) Xeon(R) Processor"
/// VM).  The shared host's speed drifts by more than 25% over minutes, and
/// the calibration loop drifts with it.
constexpr int kCalibrationSteps = 30000;
constexpr double kCalibrationRefMs = 26;
/// Keeps the calibration loop's result observable.
volatile std::size_t calibration_sink = 0;
/// Fixed seed of the serve-zipf popularity order.
constexpr std::uint64_t kPopularitySeed = 0x5eed;
/// Share of the pool's distinct results the serve cache can hold.
constexpr double kCacheShare = 0.4;
/// Closed-loop clients of serve-zipf (each waits for its reply).
constexpr int kServeClients = 2;
/// Traced-vs-StageReport reconciliation bound: the spans of every stage
/// holding at least kReconcileMinShare of the flow time, and of the whole
/// flow, must match the stage wall times within this relative deviation
/// (median over rounds), or the run is rejected.
constexpr double kReconcileBound = 0.25;
constexpr double kReconcileMinShare = 0.05;
/// Least traced rounds of a smoke run, which also runs for its --seconds:
/// one round can deviate by up to ~20%, the median of several seconds of
/// rounds stays well inside kReconcileBound.
constexpr std::size_t kSmokeRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string root = ".";
  std::string out = ".bench_build/e2e-out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

/// Correctness and operation counts of one run.
struct RunState {
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  void reject(const std::string& why) {
    if (errors.size() < 20) errors.push_back(why);
    else if (errors.size() == 20) errors.push_back("(more rejections)");
  }
};

/// What the reference run (1 thread, outside timing) produced for an item,
/// after the full correctness check.
struct Reference {
  Facts facts;
  std::string fragment;  ///< the serve payload's "netlist" object
};

void shuffle(std::vector<std::size_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kMapped: return "mapped";
    case Outcome::kNotImplementable: return "not implementable";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

bool same_result(const Facts& a, const Facts& b) {
  return a.outcome == b.outcome && a.digest == b.digest;
}

std::vector<Reference> reference_pass(const Workload& w, RunState& st) {
  std::vector<Reference> refs;
  for (const Item& item : w.items) {
    const Input& in = w.inputs[item.input];
    FlowOptions opts = flow_options(item.max_literals, 1);
    opts.capture_emitted = true;  // as the serve engine runs it
    Flow flow(opts);
    const FlowReport report = flow.run_spec(in.spec);
    const FlowContext& ctx = flow.context();
    Reference ref;
    ref.facts = facts_of(report, ctx);
    if (ref.facts.outcome == Outcome::kFailed) {
      st.reject(item.name + ": reference flow failed: " + report.failure);
    } else if (ref.facts.outcome == Outcome::kMapped) {
      const std::string why = check_output(in, ctx);
      if (!why.empty()) st.reject(item.name + ": " + why);
    }
    // The netlist member every cold serve response must carry.
    Json netlist = Json::object();
    netlist.set("sg", Json(ctx.emitted_sg));
    netlist.set("verilog", Json(ctx.emitted_verilog));
    netlist.set("eqn", Json(ctx.emitted_eqn));
    ref.fragment = netlist.dump(0);
    refs.push_back(std::move(ref));
  }
  return refs;
}

/// Highest percentile, at most `pct`, with ten samples beyond it.
Metric tail_metric(const std::vector<double>& lat, double pct) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  for (const double p : kLadder) {
    if (p > pct) continue;
    const double v = percentile(lat, p);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(lat.begin(), lat.end(), [&](double x) { return x > v; }));
    if (beyond >= 10 || p == 50) {
      char note[96];
      std::snprintf(note, sizeof note, "p%g of %zu samples, %zu beyond", p,
                    lat.size(), beyond);
      return {"latency_ms_tail", v, "ms", note};
    }
  }
  return {"latency_ms_tail", 0, "ms", "no samples"};
}

/// One block of set-ups: generate and parse the inputs (and, for serve,
/// start an engine).  Returns seconds per set-up.  Tearing down is not
/// timed: stopping the engine's workers waits on the OS scheduler's
/// wake-ups, which swing with host load.
double setup_block(const Args& a) {
  double busy_ms = 0;
  int reps = 0;
  do {
    const auto t0 = Clock::now();
    const Workload fresh = make_workload(a.workload, a.root);
    std::optional<serve::ServeEngine> engine;
    if (a.workload == "serve-zipf")
      engine.emplace(serve_options(std::size_t{64} << 20));
    busy_ms += ms_between(t0, Clock::now());
    ++reps;
  } while (busy_ms < kSetupBlockMs);
  return busy_ms / 1000 / reps;
}

/// Host-speed calibration: a fixed loop of the same kind of work as the
/// flows (hashing, node-based containers, sorting, many small allocations)
/// written with the standard library only, so no change to libsitm changes
/// it.  Returns its time in ms, frees included.
double calibration_ms() {
  const auto t0 = Clock::now();
  std::size_t sink = 0;
  {
    std::mt19937_64 rng(1);
    std::unordered_map<std::uint64_t, std::vector<int>> buckets;
    std::vector<std::string> words;
    for (int i = 0; i < kCalibrationSteps; ++i) {
      buckets[rng() % (kCalibrationSteps / 3)].push_back(i);
      words.push_back(std::to_string(rng()));
    }
    std::sort(words.begin(), words.end());
    std::map<std::string, int> prefixes;
    for (const std::string& word : words) ++prefixes[word.substr(0, 6)];
    sink = buckets.size() + prefixes.size();
  }
  calibration_sink = sink;
  return ms_between(t0, Clock::now());
}

/// What runs after every timed pass or serve segment, so it samples the
/// same stretch of host time: one set-up block and the calibration loop.
struct Interval {
  double setup_s = 0;      ///< seconds per set-up, as measured
  double peak_rss_mb = 0;  ///< peak of the pass (or segment) and set-up block
  double calibration_ms = 0;
  /// How much slower than on the reference host the calibration ran; every
  /// timing of the preceding pass or segment is divided by it.
  double slow() const { return calibration_ms / kCalibrationRefMs; }
};

Interval after_pass(const Args& a) {
  Interval iv;
  iv.setup_s = setup_block(a);
  iv.peak_rss_mb = peak_rss_mb();
  iv.calibration_ms = calibration_ms();
  reset_peak_rss();  // the calibration's heap is not the program's
  return iv;
}

// ---- flow workloads -------------------------------------------------------

/// Timings of the flow window.  timed_flow appends raw latencies;
/// flow_window then divides each pass's timings by the slowdown the
/// calibration after that pass measured.
struct FlowSamples {
  std::vector<double> latency;
  std::vector<double> pass_ms;   ///< summed flow latencies of each pass
  std::vector<double> pass_p50;  ///< median flow latency of each pass
  std::vector<double> setup_s;   ///< per set-up, one block after each pass
  std::vector<double> calibration_ms;
  std::vector<double> peak_rss_mb;
};

/// One untraced flow of `item`, checked against its reference.  Returns the
/// report; the latency is appended to `s`.
FlowReport timed_flow(const Workload& w, std::size_t idx,
                      const std::vector<Reference>& refs, int threads,
                      RunState& st, FlowSamples& s) {
  const Item& item = w.items[idx];
  Spec spec = w.inputs[item.input].spec;
  Flow flow(flow_options(item.max_literals, threads));
  const auto t0 = Clock::now();
  FlowReport report = flow.run_spec(std::move(spec));
  const double ms = ms_between(t0, Clock::now());
  ++st.attempted;
  s.latency.push_back(ms);
  const Facts f = facts_of(report, flow.context());
  bool failed = f.outcome == Outcome::kFailed || ms > kDeadlineMs;
  if (!same_result(f, refs[idx].facts)) {
    st.reject(item.name + ": " + outcome_name(f.outcome) + " output at " +
              std::to_string(threads) +
              " thread(s) differs from the checked 1-thread reference" +
              (report.ok ? "" : " (" + report.failure + ")"));
    failed = true;
  }
  if (failed) ++st.failed;
  return report;
}

/// Timed passes for `a.seconds`, each followed by a set-up block and the
/// calibration loop, which normalizes the pass's timings.
FlowSamples flow_window(const Workload& w, const std::vector<Reference>& refs,
                        const Args& a, RunState& st) {
  FlowSamples s;
  Rng rng(mix_seed(a.seed, 1));
  std::vector<std::size_t> order(w.items.size());
  std::iota(order.begin(), order.end(), 0);
  const auto start = Clock::now();
  do {
    shuffle(order, rng);
    const std::size_t first = s.latency.size();
    for (const std::size_t idx : order)
      timed_flow(w, idx, refs, w.threads, st, s);
    const Interval iv = after_pass(a);
    const auto pass = s.latency.begin() + static_cast<std::ptrdiff_t>(first);
    for (auto it = pass; it != s.latency.end(); ++it) *it /= iv.slow();
    s.pass_ms.push_back(std::accumulate(pass, s.latency.end(), 0.0));
    s.pass_p50.push_back(median(std::vector<double>(pass, s.latency.end())));
    s.setup_s.push_back(iv.setup_s / iv.slow());
    s.calibration_ms.push_back(iv.calibration_ms);
    s.peak_rss_mb.push_back(iv.peak_rss_mb);
  } while (!a.smoke && ms_between(start, Clock::now()) < a.seconds * 1000);
  return s;
}

// ---- serve ----------------------------------------------------------------

struct ServeSamples {
  std::vector<double> latency, hit_us, miss_ms, queue_wait_ms;
  double wall_ms = 0;
};

struct EngineStats {
  double hits = 0, misses = 0, evictions = 0, bytes_live = 0, steals = 0,
         executed = 0;
};

EngineStats engine_stats(const serve::ServeEngine& engine) {
  const Json j = engine.stats_json();
  const auto num = [&](const char* key) {
    const Json* v = j.find(key);
    return v ? v->number() : 0.0;
  };
  return {num("cache_hits"),       num("cache_misses"), num("cache_evictions"),
          num("cache_bytes_live"), num("steals"),       num("executed")};
}

/// A serve response, cut at its fixed-order fields.
struct Response {
  std::string status;
  bool cached = false;
  std::string_view payload;
};

Response parse_response(std::string_view r) {
  Response out;
  const auto st = r.find("\"status\":\"");
  if (st == std::string_view::npos) return out;
  const auto end = r.find('"', st + 10);
  out.status = std::string(r.substr(st + 10, end - (st + 10)));
  const auto c = r.find("\"cached\":", end);
  const auto p = r.find("\"result\":", end);
  if (c == std::string_view::npos || p == std::string_view::npos) return out;
  out.cached = r.compare(c + 9, 4, "true") == 0;
  out.payload = r.substr(p + 9, r.size() - (p + 9) - 1);
  return out;
}

double report_total_ms(std::string_view payload) {
  const auto k = payload.find("\"total_ms\":");
  if (k == std::string_view::npos) return 0;
  return std::strtod(std::string(payload.substr(k + 11, 32)).c_str(), nullptr);
}

/// Drives a ServeEngine from closed-loop clients and checks every response:
/// cold ones against the reference netlist, warm ones byte for byte against
/// the cold responses of the same key.
class ServeClients {
 public:
  ServeClients(const Workload& w, const std::vector<Reference>& refs)
      : w_(w), refs_(refs), cold_(w.items.size()) {}

  /// One request of item `k`; records the response for the checks.
  struct Record {
    std::size_t item = 0;
    double ms = 0;
    Response resp;
    std::size_t hash = 0;
    double total_ms = 0;
    bool fragment_ok = true;
  };

  Record request(serve::ServeEngine& engine, std::size_t k,
                 const std::string& line, Tracer* tracer, int tid) {
    Record rec;
    rec.item = k;
    std::string text;
    const auto t0 = Clock::now();
    if (tracer) {
      ScopedSpan span(*tracer, "serve.handle_line", 0, w_.items[k].name, tid);
      text = engine.handle_line(line);
      rec.ms = span.finish();
    } else {
      text = engine.handle_line(line);
      rec.ms = ms_between(t0, Clock::now());
    }
    rec.resp = parse_response(text);
    rec.hash = std::hash<std::string_view>{}(rec.resp.payload);
    if (!rec.resp.cached) {
      rec.total_ms = report_total_ms(rec.resp.payload);
      if (refs_[k].facts.outcome == Outcome::kMapped)
        rec.fragment_ok =
            rec.resp.payload.find(refs_[k].fragment) != std::string_view::npos;
    }
    rec.resp.payload = {};  // `text` dies here
    return rec;
  }

  /// Account one finished record: operation counts, samples, cold hashes.
  void account(const Record& rec, RunState& st, ServeSamples* s) {
    const Item& item = w_.items[rec.item];
    const Outcome expected = refs_[rec.item].facts.outcome;
    const bool ok_status = rec.resp.status == "ok";
    bool failed = rec.ms > kDeadlineMs;
    if (expected == Outcome::kMapped ? !ok_status
                                     : rec.resp.status != "failed") {
      st.reject(item.name + ": serve answered \"" + rec.resp.status +
                "\", the reference run was " + outcome_name(expected));
      failed = true;
    }
    if (!rec.fragment_ok) {
      st.reject(item.name + ": cold serve netlist differs from the checked "
                            "reference netlist");
      failed = true;
    }
    if (!rec.resp.cached && ok_status) cold_[rec.item].push_back(rec.hash);
    if (rec.resp.cached) hits_.emplace_back(rec.item, rec.hash);
    if (!s) return;
    ++st.attempted;
    if (failed) ++st.failed;
    s->latency.push_back(rec.ms);
    if (rec.resp.cached) {
      s->hit_us.push_back(rec.ms * 1000);
    } else if (ok_status) {
      s->miss_ms.push_back(rec.ms);
      s->queue_wait_ms.push_back(rec.ms - rec.total_ms);
    }
  }

  /// Every warm response must equal, byte for byte, a cold response of its
  /// key (the cache keeps the first insertion of a key; a key that was
  /// evicted and recomputed has several cold responses).
  void check_hits(RunState& st) {
    for (const auto& [k, hash] : hits_) {
      const auto& cold = cold_[k];
      if (std::find(cold.begin(), cold.end(), hash) == cold.end())
        st.reject(w_.items[k].name +
                  ": warm response differs from every cold response");
    }
    hits_.clear();
  }

  /// Closed loop: `kServeClients` clients, each sending its next request
  /// when the previous reply arrives, keys drawn from a seeded Zipf
  /// distribution.  Stops after `per_client` requests each (when nonzero)
  /// or after `seconds`.
  void closed_loop(serve::ServeEngine& engine, std::uint64_t seed,
                   double seconds, std::size_t per_client, Tracer* tracer,
                   RunState& st, ServeSamples* s) {
    const std::size_t n = w_.items.size();
    // Popularity ranks over a fixed permutation of the keys: which keys
    // are hot stays the same across seeds (the seed draws the requests and
    // the random pool specs), so a window's miss cost does not hinge on
    // whether the seed happened to make an expensive key cold.
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    Rng prng(kPopularitySeed);
    shuffle(perm, prng);
    std::vector<double> cdf(n);
    double acc = 0;
    for (std::size_t r = 0; r < n; ++r)
      cdf[r] = acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    for (double& c : cdf) c /= acc;

    std::vector<std::vector<Record>> records(kServeClients);
    std::vector<std::string> errors(kServeClients);
    const auto start = Clock::now();
    const auto client = [&](int c) {
      try {
        Rng rng(mix_seed(seed, 100 + static_cast<std::uint64_t>(c)));
        for (std::size_t i = 0;; ++i) {
          if (per_client ? i >= per_client
                         : ms_between(start, Clock::now()) >= seconds * 1000)
            break;
          const double u = rng.uniform();
          const std::size_t rank = static_cast<std::size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          const std::size_t k = perm[std::min(rank, n - 1)];
          records[c].push_back(
              request(engine, k, w_.items[k].line, tracer, c + 1));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) threads.emplace_back(client, c);
    for (auto& t : threads) t.join();
    if (s) s->wall_ms += ms_between(start, Clock::now());
    for (int c = 0; c < kServeClients; ++c) {
      if (!errors[c].empty()) st.reject("serve client: " + errors[c]);
      for (const Record& rec : records[c]) account(rec, st, s);
    }
    check_hits(st);
  }

 private:
  const Workload& w_;
  const std::vector<Reference>& refs_;
  std::vector<std::vector<std::size_t>> cold_;
  std::vector<std::pair<std::size_t, std::size_t>> hits_;
};

/// kCacheShare of the bytes the engine charges for all the pool's results,
/// and at least two of the largest per shard.  The charges are read from
/// the engine's own stats, sending each key in turn to an engine whose
/// cache holds them all.
std::size_t cache_budget(const Workload& w) {
  serve::ServeEngine engine(serve_options(std::size_t{1} << 30));
  double total = 0, largest = 0;
  for (const Item& item : w.items) {
    const double before = engine_stats(engine).bytes_live;
    engine.handle_line(item.line);
    const double charged = engine_stats(engine).bytes_live - before;
    total += charged;
    largest = std::max(largest, charged);
  }
  const double shards = serve_options(0).cache_shards;
  return static_cast<std::size_t>(
      std::max(kCacheShare * total, shards * 2 * largest));
}

// ---- traced run -----------------------------------------------------------

/// Per-pass sums of one traced replay pass.
struct ReplayPass {
  double layer_ms[kNumLayers] = {};
  double flow_ms = 0;  ///< per-input spans minus load and observe
  LayerCounts counts;
};

/// Per-pass sums of one untraced pass (StageReport times).
struct FlowPass {
  double total_ms = 0;
  double stage_ms[kNumStages] = {};
};

ReplayPass replay_pass(const Workload& w, const std::vector<Reference>& refs,
                       const std::vector<std::size_t>& order, int threads,
                       Tracer& tracer, RunState& st) {
  ReplayPass p;
  ScopedSpan pass(tracer, "pass", 0, "threads=" + std::to_string(threads));
  for (const std::size_t idx : order) {
    const Item& item = w.items[idx];
    const ReplayResult r =
        replay_input(w.inputs[item.input],
                     flow_options(item.max_literals, threads), tracer, pass.id());
    ++st.attempted;
    if (!r.failure.empty()) {
      st.reject(item.name + ": traced replay: " + r.failure);
      ++st.failed;
    } else if (!same_result(r.facts, refs[idx].facts)) {
      st.reject(item.name + ": traced replay output differs from the flow's");
      ++st.failed;
    }
    for (int l = 0; l < kNumLayers; ++l) p.layer_ms[l] += r.layer_ms[l];
    p.flow_ms += r.input_ms - r.layer_ms[kLoad] - r.layer_ms[kObserve];
    p.counts.add(r.counts);
  }
  return p;
}

FlowPass untraced_pass(const Workload& w, const std::vector<Reference>& refs,
                       const std::vector<std::size_t>& order, RunState& st) {
  FlowPass p;
  FlowSamples ignored;
  for (const std::size_t idx : order) {
    const FlowReport r = timed_flow(w, idx, refs, w.threads, st, ignored);
    p.total_ms += r.total_ms;
    for (int s = 0; s < kNumStages; ++s) p.stage_ms[s] += r.stages[s].wall_ms;
  }
  return p;
}

struct TracedFlows {
  std::vector<ReplayPass> replay;
  std::vector<FlowPass> flows;
  std::vector<double> map_ms_1thread;
};

TracedFlows traced_flows(const Workload& w, const std::vector<Reference>& refs,
                         const Args& a, double seconds, Tracer& tracer,
                         RunState& st) {
  TracedFlows t;
  Rng rng(mix_seed(a.seed, 2));
  std::vector<std::size_t> order(w.items.size());
  std::iota(order.begin(), order.end(), 0);
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    shuffle(order, rng);
    // Alternate which side runs first so slow drift hits both alike.
    if (round % 2 == 0) {
      t.replay.push_back(replay_pass(w, refs, order, w.threads, tracer, st));
      t.flows.push_back(untraced_pass(w, refs, order, st));
    } else {
      t.flows.push_back(untraced_pass(w, refs, order, st));
      t.replay.push_back(replay_pass(w, refs, order, w.threads, tracer, st));
    }
    if (w.threads > 1) {
      const ReplayPass one = replay_pass(w, refs, order, 1, tracer, st);
      t.map_ms_1thread.push_back(one.layer_ms[kMap] + one.layer_ms[kMapNetlist]);
    }
    if ((!a.smoke || round + 1 >= kSmokeRounds) &&
        ms_between(start, Clock::now()) >= seconds * 1000)
      break;
  }
  return t;
}

struct ServeLayer {
  ServeSamples samples;
  EngineStats before, after;
};

/// Flow workloads: each item sent cold, then warm, through a fresh engine,
/// so serve's own cost on these inputs is measured too.
ServeLayer serve_probe(const Workload& w, const std::vector<Reference>& refs,
                       Tracer& tracer, RunState& st) {
  ServeLayer out;
  serve::ServeOptions opts = serve_options(std::size_t{1} << 30);
  serve::ServeEngine engine(opts);
  ServeClients clients(w, refs);
  out.before = engine_stats(engine);
  for (std::size_t k = 0; k < w.items.size(); ++k) {
    const Item& item = w.items[k];
    const std::string line = request_line(w.inputs[item.input], item.name,
                                          item.max_literals, w.threads);
    for (int rep = 0; rep < 2; ++rep) {
      const ServeClients::Record rec = clients.request(engine, k, line, &tracer, 1);
      if (refs[k].facts.outcome == Outcome::kMapped &&
          rec.resp.cached != (rep == 1))
        st.reject(item.name + ": serve probe expected a " +
                  (rep ? "warm" : "cold") + " response");
      clients.account(rec, st, &out.samples);
    }
  }
  clients.check_hits(st);
  out.after = engine_stats(engine);
  return out;
}

double pass_median(const std::vector<ReplayPass>& v,
                   const std::function<double(const ReplayPass&)>& f) {
  std::vector<double> xs;
  for (const ReplayPass& p : v) xs.push_back(f(p));
  return median(xs);
}

std::vector<Metric> layer_metrics(const Workload& w, const TracedFlows& t,
                                  const ServeLayer& sl,
                                  std::vector<std::string>& notes,
                                  RunState& st) {
  const auto layers = [&](std::initializer_list<int> ls) {
    return pass_median(t.replay, [&](const ReplayPass& p) {
      double sum = 0;
      for (const int l : ls) sum += p.layer_ms[l];
      return sum;
    });
  };
  const auto count = [&](double LayerCounts::*field) {
    return pass_median(t.replay,
                       [&](const ReplayPass& p) { return p.counts.*field; });
  };
  const double flow_ms =
      pass_median(t.replay, [](const ReplayPass& p) { return p.flow_ms; });
  const double map_ms = layers({kMap, kMapNetlist});
  // Overheads compare the traced and the untraced pass of each round and
  // take the median over rounds: pairing cancels host drift slower than a
  // round.
  const auto round_median = [&](double (*f)(const ReplayPass&, const FlowPass&)) {
    std::vector<double> xs;
    for (std::size_t r = 0; r < t.replay.size(); ++r)
      xs.push_back(f(t.replay[r], t.flows[r]));
    return median(xs);
  };
  const double flow_overhead_ms =
      round_median([](const ReplayPass& p, const FlowPass& f) {
        double spans = 0;
        for (int l = 0; l < kNumLayers; ++l)
          if (layer_stage(l)) spans += p.layer_ms[l];
        return f.total_ms - spans;
      });
  const double trace_overhead_ms = round_median(
      [](const ReplayPass& p, const FlowPass& f) { return p.flow_ms - f.total_ms; });
  const double trace_overhead_share =
      round_median([](const ReplayPass& p, const FlowPass& f) {
        return p.flow_ms / f.total_ms - 1;
      });
  const double resyn = count(&LayerCounts::resyntheses);
  const double efficiency =
      t.map_ms_1thread.empty()
          ? 1.0
          : median(t.map_ms_1thread) / (w.threads * map_ms);

  // Reconciliation, per stage and in total.  Each round pairs a traced and
  // an untraced pass over the same order; the deviation is how far the
  // median over rounds of span time ÷ stage wall time lies from 1, so a
  // swing in host speed during one side of one round does not decide it.
  // `stage` == kNumStages stands for the whole flow; the sums over all
  // rounds come back in `span` and `wall`.
  const auto reconcile = [&](int stage, double& span, double& wall) {
    std::vector<double> ratios;
    span = wall = 0;
    for (std::size_t r = 0; r < t.replay.size(); ++r) {
      double sp = 0, wa = 0;
      for (int l = 0; l < kNumLayers; ++l)
        if (const auto s = layer_stage(l);
            s && (stage == kNumStages || static_cast<int>(*s) == stage))
          sp += t.replay[r].layer_ms[l];
      for (int s = 0; s < kNumStages; ++s)
        if (stage == kNumStages || s == stage) wa += t.flows[r].stage_ms[s];
      span += sp;
      wall += wa;
      if (wa > 0) ratios.push_back(sp / wa);
    }
    return ratios.empty() ? 0.0 : std::abs(median(ratios) - 1);
  };
  double span_total = 0, wall_total = 0;
  double worst = reconcile(kNumStages, span_total, wall_total);
  char buf[160];
  std::snprintf(buf, sizeof buf, "total %.2f vs %.2f ms (dev %.3f)", span_total,
                wall_total, worst);
  std::string detail = buf;
  for (int s = 0; s < kNumStages; ++s) {
    double span = 0, wall = 0;
    const double dev = reconcile(s, span, wall);
    if (wall < kReconcileMinShare * wall_total) continue;
    worst = std::max(worst, dev);
    std::snprintf(buf, sizeof buf, "; %s %.2f vs %.2f ms (dev %.3f)",
                  stage_name(static_cast<Stage>(s)), span, wall, dev);
    detail += buf;
  }
  const std::string verdict =
      std::string("reconciliation (spans vs StageReport::wall_ms, bound ") +
      std::to_string(kReconcileBound) + "): ";
  notes.push_back(verdict + (worst <= kReconcileBound ? "ok" : "OUT OF BOUND") +
                  ", " + detail);
  if (worst > kReconcileBound) st.reject(verdict + detail);

  const ServeSamples& ss = sl.samples;
  const double hits = sl.after.hits - sl.before.hits;
  const double misses = sl.after.misses - sl.before.misses;
  return {
      {"map.ms", map_ms, "ms", "technology_map + build_netlist per pass"},
      {"map.share", map_ms / flow_ms, "share", "of the replayed flow time"},
      {"map.candidates_planned", count(&LayerCounts::candidates_planned), "count", ""},
      {"map.resyntheses", resyn, "count", ""},
      {"map.useful_ratio", resyn > 0 ? count(&LayerCounts::map_inserted) / resyn : 0,
       "ratio", "signals inserted per resynthesis"},
      {"map.parallel_efficiency", efficiency, "ratio",
       "1-thread map.ms / (threads x " + std::to_string(w.threads) +
           "-thread map.ms)"},
      {"synth.ms", layers({kSynth}), "ms", ""},
      {"synth.literals", count(&LayerCounts::synth_literals), "count", ""},
      {"verify.ms", layers({kVerify}), "ms", ""},
      {"verify.composite_states", count(&LayerCounts::composite_states), "count", ""},
      {"check.ms", layers({kNlint, kEquiv}), "ms", "nlint + BDD equivalence"},
      {"check.bdd_nodes", count(&LayerCounts::bdd_nodes), "count", ""},
      {"stg.reach_ms", layers({kLint, kReach}), "ms", "lint gate + token game"},
      {"stg.states", count(&LayerCounts::states), "count", ""},
      {"sg.properties_ms", layers({kProperties}), "ms", ""},
      {"csc.ms", layers({kCscAnalyze, kCscResolve}), "ms", "analyze + resolve"},
      {"csc.signals_inserted", count(&LayerCounts::csc_inserted), "count", ""},
      {"decomp.ms", layers({kDecomp}), "ms", ""},
      {"stg.load_ms", layers({kLoad}), "ms", "parse; outside the timed path"},
      {"observe.ms", layers({kObserve}), "ms", "correctness check only"},
      {"flow.overhead_ms", flow_overhead_ms, "ms",
       "Flow total minus the replayed layer calls"},
      {"serve.hit_us", median(ss.hit_us), "us", ""},
      {"serve.miss_ms", median(ss.miss_ms), "ms", ""},
      {"serve.queue_wait_ms", median(ss.queue_wait_ms), "ms",
       "miss latency minus the report's total_ms"},
      {"serve.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio", ""},
      {"serve.evictions", sl.after.evictions - sl.before.evictions, "count", ""},
      {"serve.bytes_live", sl.after.bytes_live, "bytes", ""},
      {"sched.steals", sl.after.steals - sl.before.steals, "count", ""},
      {"sched.executed", sl.after.executed - sl.before.executed, "count", ""},
      {"trace.overhead_ms", trace_overhead_ms, "ms",
       "traced replay minus untraced flow of the same round"},
      {"trace.overhead_share", trace_overhead_share, "share", ""},
      {"trace.reconcile_dev", worst, "share",
       "max relative deviation, bound " + std::to_string(kReconcileBound)},
  };
}

// ---- main -----------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: sitm_e2e --workload corpus|ladder-mt|wide-lib|serve-zipf "
               "--seed N --seconds S --trace 0|1 [--smoke] [--root DIR] "
               "[--out DIR]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (!(v = value())) return false;
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") a.trace = std::string(v) == "1";
    else if (arg == "--root") a.root = v;
    else if (arg == "--out") a.out = v;
    else return false;
  }
  static const char* kWorkloads[] = {"corpus", "ladder-mt", "wide-lib",
                                     "serve-zipf"};
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) !=
             std::end(kWorkloads) &&
         a.seconds >= 0;
}

int run(const Args& a) {
  RunState st;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  const bool serve_wl = a.workload == "serve-zipf";

  const Workload w = make_workload(a.workload, a.root);
  const std::vector<Reference> refs = reference_pass(w, st);
  const std::size_t cache_bytes = serve_wl ? cache_budget(w) : 0;

  // Quality counts over the distinct inputs: every timed operation must
  // reproduce its reference, so these hold for every operation too.
  double literals = 0, inserted = 0, mapped = 0;
  for (const Reference& r : refs) {
    literals += r.facts.literals;
    inserted += r.facts.inserted;
    if (r.facts.outcome == Outcome::kMapped) ++mapped;
  }
  const double mapped_share = mapped / static_cast<double>(refs.size());
  reset_peak_rss();

  if (!a.trace) {
    std::vector<double> latency, setup_s, calibration, peak_mb;
    double ops_per_s = 0, p50 = 0;
    if (serve_wl) {
      serve::ServeEngine engine(serve_options(cache_bytes));
      ServeClients clients(w, refs);
      // Warm-up, not measured: the cache reaches its steady state.
      clients.closed_loop(engine, a.seed ^ 0x5a5a, 0, a.smoke ? 10 : 2 * w.items.size(),
                         nullptr, st, nullptr);
      // The window runs in segments of about a second, each followed by a
      // set-up block and the calibration loop, which normalizes the
      // segment's latencies and time.
      ServeSamples s;
      const EngineStats before = engine_stats(engine);
      std::vector<double> per_s;  // normalized throughput of each segment
      const int segments = a.smoke ? 1 : std::max(1, static_cast<int>(a.seconds));
      for (int seg = 0; seg < segments; ++seg) {
        const std::size_t first = s.latency.size();
        const double wall_ms = s.wall_ms;
        clients.closed_loop(engine, mix_seed(a.seed, 200 + static_cast<std::uint64_t>(seg)),
                            a.seconds / segments, a.smoke ? 40 : 0, nullptr, st, &s);
        const Interval iv = after_pass(a);
        for (std::size_t i = first; i < s.latency.size(); ++i)
          s.latency[i] /= iv.slow();
        per_s.push_back(static_cast<double>(s.latency.size() - first) /
                        ((s.wall_ms - wall_ms) / iv.slow() / 1000));
        setup_s.push_back(iv.setup_s / iv.slow());
        calibration.push_back(iv.calibration_ms);
        peak_mb.push_back(iv.peak_rss_mb);
      }
      latency = s.latency;
      // The median segment is robust to a burst of expensive misses.
      ops_per_s = median(per_s);
      p50 = percentile(latency, 50);
      const EngineStats after = engine_stats(engine);
      char hit_note[96];
      std::snprintf(hit_note, sizeof hit_note, "; window: %.0f hits, %.0f misses",
                    after.hits - before.hits, after.misses - before.misses);
      notes.push_back("serve: " + std::to_string(kServeClients) +
                      " closed-loop clients, " + std::to_string(w.items.size()) +
                      " keys, cache budget " + std::to_string(cache_bytes) +
                      " bytes" + hit_note);
    } else {
      const FlowSamples s = flow_window(w, refs, a, st);
      latency = s.latency;
      setup_s = s.setup_s;
      calibration = s.calibration_ms;
      peak_mb = s.peak_rss_mb;
      // Whole passes weigh every input alike.
      ops_per_s = static_cast<double>(w.items.size()) /
                  (std::accumulate(s.pass_ms.begin(), s.pass_ms.end(), 0.0) /
                   static_cast<double>(s.pass_ms.size()) / 1000);
      // The pooled median of a pass falls between two inputs' latencies and
      // jumps with their extremes; the median over passes does not.
      p50 = median(s.pass_p50);
      notes.push_back(std::to_string(s.pass_ms.size()) + " passes over " +
                      std::to_string(w.items.size()) + " inputs at " +
                      std::to_string(w.threads) + " thread(s)");
    }
    char calib_note[160];
    std::snprintf(calib_note, sizeof calib_note,
                  "host speed: calibration loop median %.2f ms over %zu "
                  "samples (reference %.0f ms); timings below are divided "
                  "by each sample / reference",
                  median(calibration), calibration.size(), kCalibrationRefMs);
    notes.push_back(calib_note);
    const double ok_share =
        st.attempted ? static_cast<double>(st.attempted - st.failed) /
                           static_cast<double>(st.attempted)
                     : 0;
    metrics = {
        {"ops_per_s", ops_per_s, "1/s", serve_wl ? "requests" : "flows"},
        {"latency_ms_p50", p50, "ms", serve_wl ? "" : "median over passes"},
        tail_metric(latency, w.tail_pct),
        {"ok_share", ok_share, "share", "operations completed and checked"},
        {"setup_s", median(setup_s), "s",
         "median per set-up over " + std::to_string(setup_s.size()) +
             " blocks, one after each pass or segment"},
        {"peak_rss_mb", median(peak_mb), "MB",
         "median over passes or segments of the peak within one"},
        {"literals_total", literals, "count", "sum over distinct inputs"},
        {"mapped_share", mapped_share, "share", "of the distinct inputs"},
        {"inserted_signals_total", inserted, "count", "sum over distinct inputs"},
    };
  } else {
    Tracer tracer;
    ServeLayer sl;
    TracedFlows t;
    if (serve_wl) {
      t = traced_flows(w, refs, a, a.seconds / 2, tracer, st);
      serve::ServeEngine engine(serve_options(cache_bytes));
      ServeClients clients(w, refs);
      clients.closed_loop(engine, a.seed ^ 0x5a5a, 0, a.smoke ? 10 : 2 * w.items.size(),
                         nullptr, st, nullptr);
      sl.before = engine_stats(engine);
      clients.closed_loop(engine, a.seed, a.seconds / 2, a.smoke ? 40 : 0, &tracer,
                         st, &sl.samples);
      sl.after = engine_stats(engine);
    } else {
      t = traced_flows(w, refs, a, a.seconds, tracer, st);
      sl = serve_probe(w, refs, tracer, st);
    }
    metrics = layer_metrics(w, t, sl, notes, st);
    std::filesystem::create_directories(a.out);
    const std::string path = a.out + "/trace-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".json";
    if (!tracer.write(path, {{"workload", a.workload},
                             {"seed", std::to_string(a.seed)},
                             {"nproc", std::to_string(host_nproc())},
                             {"cpu", host_cpu_model()}}))
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    notes.push_back("trace: " + std::to_string(tracer.size()) + " spans in " +
                    path + " (" + std::to_string(t.replay.size()) +
                    " replay rounds)");
  }

  // Human-readable report, then the result line.
  std::printf("workload %s  seed %llu  seconds %g  trace %d%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.smoke ? "  (smoke)" : "");
  std::printf("host: nproc=%d cpu=\"%s\"\n", host_nproc(),
              host_cpu_model().c_str());
  for (const std::string& n : notes) std::printf("note: %s\n", n.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-26s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  for (const std::string& e : st.errors)
    std::printf("REJECTED: %s\n", e.c_str());
  std::printf("correctness: %s (%zu operations, %zu failed)\n",
              st.errors.empty() ? "all outputs passed" : "FAILED", st.attempted,
              st.failed);

  std::string line = "{\"correct\": ";
  line += st.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(st.attempted);
  line += ", \"failed\": " + std::to_string(st.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return st.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, args)) return e2e::usage();
  try {
    return e2e::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sitm_e2e: %s\n", e.what());
    return 2;
  }
}
