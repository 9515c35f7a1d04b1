#pragma once
// Shared pieces of the end-to-end benchmark (see NOTES.md): workload inputs,
// the output correctness check, the span recorder of the traced run and the
// small statistics helpers every workload reports with.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "flow/flow.hpp"
#include "serve/server.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// An operation slower than this counts as failed (checked after the fact;
/// the timed flows run ungoverned, like `sitm batch` without a deadline).
inline constexpr double kDeadlineMs = 60000;

/// One specification the program is given: the generated .g text and its
/// parse, made during set-up.
struct Input {
  std::string name;
  std::string text;
  sitm::Spec spec;
};

/// One unit of work: an input under one library size.  In serve-zipf an
/// item is one cache key, and `line` the request a client sends for it.
struct Item {
  std::size_t input = 0;  ///< index into Workload::inputs
  int max_literals = 2;
  std::string name;
  std::string line;
};

struct Workload {
  std::string name;
  std::vector<Input> inputs;
  /// mc/mapper threads of the timed flows (the reference runs use 1).
  int threads = 1;
  /// Percentile reported as latency_ms_tail (lowered when fewer than ten
  /// samples lie beyond it).
  double tail_pct = 95;
  std::vector<Item> items;
};

/// Build the workload's inputs; they are the same for every --seed.
/// `root` is the repository root (the corpus is read from
/// root/data/benchmarks).
Workload make_workload(const std::string& name, const std::string& root);

/// Options of one flow over `max_literals` at `threads`, with the
/// `sitm batch` defaults (lint and check on).
sitm::FlowOptions flow_options(int max_literals, int threads);

/// A serve request for `in` under `max_literals` (and synth/map threads when
/// not 1).
std::string request_line(const Input& in, const std::string& id,
                         int max_literals, int threads);

/// Options the serve engine runs every request under.
sitm::serve::ServeOptions serve_options(std::size_t cache_bytes);

// ---- outputs ----------------------------------------------------------

enum class Outcome { kMapped, kNotImplementable, kFailed };
Outcome classify(const sitm::FlowReport& report);

/// What a correct run of one input produces.
struct Facts {
  Outcome outcome = Outcome::kFailed;
  std::uint64_t digest = 0;  ///< mapped netlist + mapped SG text
  int literals = 0;
  int inserted = 0;  ///< signals of the output SG absent from the input
};

std::uint64_t fnv64(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull);

/// Derives the `k`-th independent stream seed from the run's seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k);

/// Facts of a finished flow (digest only; no proof).
Facts facts_of(const sitm::FlowReport& report, const sitm::FlowContext& ctx);

/// Full correctness check of a finished flow, outside any timed region:
/// nlint, the BDD equivalence proof and speed independence of the mapped
/// netlist, plus observational equivalence of the mapped SG with the input
/// SG once the inserted signals are hidden.  Returns an empty string when
/// the output passes, else the reason.
std::string check_output(const Input& in, const sitm::FlowContext& ctx);

// ---- tracing ----------------------------------------------------------

/// In-memory span recorder written out as Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string input;
    std::uint64_t id = 0, parent = 0;
    double start_us = 0, dur_us = 0;
    int tid = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  Tracer() : epoch_(Clock::now()) {}

  std::uint64_t next_id() {
    const std::lock_guard<std::mutex> lock(m_);
    return ++last_id_;
  }
  void record(Span span) {
    const std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(std::move(span));
  }
  double us_since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(m_);
    return spans_.size();
  }
  /// Write every span plus `meta` (host stamp, workload) to `path`.
  bool write(const std::string& path,
             const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex m_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: times its own lifetime and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent,
             std::string input, int tid = 0)
      : tracer_(tracer), start_(Clock::now()) {
    span_.name = std::move(name);
    span_.input = std::move(input);
    span_.parent = parent;
    span_.tid = tid;
    span_.id = tracer.next_id();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { finish(); }

  std::uint64_t id() const { return span_.id; }
  void arg(std::string key, double value) {
    span_.args.emplace_back(std::move(key), value);
  }
  /// End the span now; returns its duration in ms (idempotent).
  double finish() {
    if (!done_) {
      const auto end = Clock::now();
      span_.start_us = tracer_.us_since_epoch(start_);
      span_.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
      ms_ = span_.dur_us / 1000.0;
      done_ = true;
      tracer_.record(std::move(span_));
    }
    return ms_;
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  Tracer::Span span_;
  bool done_ = false;
  double ms_ = 0;
};

// ---- traced layer replay ----------------------------------------------

/// Span groups of the replay, in flow order.  Each maps onto one Flow stage
/// for the reconciliation against StageReport::wall_ms (load and observe
/// are outside the flow's timed path).
enum Layer : int {
  kLoad = 0,    // load_spec_string
  kLint,        // lint_spec                     (reachability stage)
  kReach,       // Stg::to_state_graph           (reachability stage)
  kProperties,  // consistency .. usc checks     (properties stage)
  kCscAnalyze,  // analyze_csc                   (properties stage)
  kCscResolve,  // resolve_csc                   (csc stage)
  kSynth,       // synthesize_all                (synth stage)
  kDecomp,      // tech_decomp2                  (decomp stage)
  kMap,         // technology_map                (map stage)
  kMapNetlist,  // MapResult::build_netlist      (map stage)
  kNlint,       // nlint_netlist                 (check stage)
  kEquiv,       // check_equivalence             (check stage)
  kVerify,      // verify_speed_independence     (verify stage)
  kObserve,     // observationally_equivalent    (correctness check only)
  kNumLayers,
};
const char* layer_name(int layer);
/// Flow stage a layer's time belongs to; nullopt for load/observe.
std::optional<sitm::Stage> layer_stage(int layer);

/// Work counts recorded at the layer boundaries (exact for a given input).
struct LayerCounts {
  double states = 0, csc_inserted = 0, synth_literals = 0;
  double candidates_planned = 0, resyntheses = 0, map_inserted = 0;
  double bdd_nodes = 0, composite_states = 0;

  void add(const LayerCounts& o) {
    states += o.states;
    csc_inserted += o.csc_inserted;
    synth_literals += o.synth_literals;
    candidates_planned += o.candidates_planned;
    resyntheses += o.resyntheses;
    map_inserted += o.map_inserted;
    bdd_nodes += o.bdd_nodes;
    composite_states += o.composite_states;
  }
};

struct ReplayResult {
  double layer_ms[kNumLayers] = {};
  double input_ms = 0;  ///< the per-input span
  Facts facts;
  std::string failure;  ///< nonempty when the replay deviated or failed
  LayerCounts counts;
};

/// Replay one input through the layers' public functions in flow order,
/// one span per call, all parented to one per-input span.
ReplayResult replay_input(const Input& in, const sitm::FlowOptions& opts,
                          Tracer& tracer, std::uint64_t parent);

// ---- statistics -------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated percentile (0..100) of `v`.
double percentile(std::vector<double> v, double pct);

/// Host stamp recorded with every result.
std::string host_cpu_model();
int host_nproc();

/// Peak resident set: reset_peak_rss() restarts the high-water mark where
/// the kernel allows it; peak_rss_mb() reads it.
void reset_peak_rss();
double peak_rss_mb();

}  // namespace e2e
