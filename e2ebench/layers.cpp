// Output checks, the traced layer replay and the helpers around them.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "core/csc.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "netlist/equiv.hpp"
#include "netlist/nlint.hpp"
#include "netlist/si_verify.hpp"
#include "netlist/tech_decomp.hpp"
#include "netlist/writers.hpp"
#include "sg/observe.hpp"
#include "sg/properties.hpp"
#include "sg/sg_io.hpp"
#include "stg/lint.hpp"
#include "util/json.hpp"

namespace e2e {

using namespace sitm;

Outcome classify(const FlowReport& report) {
  if (report.ok) return Outcome::kMapped;
  // A typed "not implementable" verdict of the mapper is a result.
  if (report.failed_stage == Stage::kMap &&
      report.failure_kind == FailureKind::kSpec &&
      report.failure.rfind("not implementable", 0) == 0)
    return Outcome::kNotImplementable;
  return Outcome::kFailed;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t x = (seed + 1) * 0x9e3779b97f4a7c15ull ^ (k * 0xc2b2ae3d27d4eb4full);
  x ^= x >> 29;
  return x * 0xbf58476d1ce4e5b9ull;
}

std::uint64_t fnv64(std::string_view s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

std::uint64_t output_digest(const StateGraph& sg, const Netlist& netlist,
                            const std::string& name) {
  return fnv64(write_sg_string(sg, name),
               fnv64(write_eqn_string(netlist, name)));
}

std::string not_implementable(int max_literals, const std::string& why) {
  return "not implementable with " + std::to_string(max_literals) +
         "-literal gates: " + why;
}

}  // namespace

Facts facts_of(const FlowReport& report, const FlowContext& ctx) {
  Facts f;
  f.outcome = classify(report);
  if (f.outcome == Outcome::kMapped) {
    f.digest = output_digest(*ctx.sg, *ctx.netlist, ctx.name);
    f.literals = ctx.netlist->total_literals();
    f.inserted = static_cast<int>(ctx.sg->num_signals()) -
                 static_cast<int>(ctx.spec.stg->num_signals());
  } else {
    f.digest = fnv64(report.failure);
  }
  return f;
}

std::string check_output(const Input& in, const FlowContext& ctx) {
  if (!ctx.netlist || !ctx.sg) return "no netlist";
  const Netlist& netlist = *ctx.netlist;
  const NlintReport lint = nlint_netlist(netlist);
  if (!lint.ok()) return "nlint: " + lint.first_error();
  const EquivReport equiv = check_equivalence(netlist);
  if (!equiv.ok) return "equivalence: " + equiv.first_failure();
  const SiVerifyResult si = verify_speed_independence(netlist);
  if (!si.ok) return "speed independence: " + si.why;
  const StateGraph input_sg = in.spec.stg->to_state_graph();
  const ObserveResult obs = observationally_equivalent(input_sg, *ctx.sg);
  if (!obs.equivalent) return "observational equivalence: " + obs.why;
  return {};
}

// ---- tracing ------------------------------------------------------------

bool Tracer::write(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::lock_guard<std::mutex> lock(m_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"metadata\":{");
  for (std::size_t i = 0; i < meta.size(); ++i)
    std::fprintf(f, "%s\"%s\":\"%s\"", i ? "," : "",
                 Json::escape(meta[i].first).c_str(),
                 Json::escape(meta[i].second).c_str());
  std::fprintf(f, "},\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"sitm\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"input\":\"%s\"",
                 i ? ",\n" : "", Json::escape(s.name).c_str(), s.tid,
                 s.start_us, s.dur_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 Json::escape(s.input).c_str());
    for (const auto& [k, v] : s.args)
      std::fprintf(f, ",\"%s\":%.17g", Json::escape(k).c_str(), v);
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

const char* layer_name(int layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "stg.load",    "stg.lint",  "stg.reach",   "sg.properties",
      "csc.analyze", "csc.resolve", "synth",     "decomp",
      "map",         "map.build_netlist", "check.nlint", "check.equiv",
      "verify",      "observe",
  };
  return kNames[layer];
}

std::optional<Stage> layer_stage(int layer) {
  switch (layer) {
    case kLint:
    case kReach: return Stage::kReachability;
    case kProperties:
    case kCscAnalyze: return Stage::kProperties;
    case kCscResolve: return Stage::kCsc;
    case kSynth: return Stage::kSynth;
    case kDecomp: return Stage::kDecomp;
    case kMap:
    case kMapNetlist: return Stage::kMap;
    case kNlint:
    case kEquiv: return Stage::kCheck;
    case kVerify: return Stage::kVerify;
    default: return std::nullopt;
  }
}

ReplayResult replay_input(const Input& in, const FlowOptions& opts,
                          Tracer& tracer, std::uint64_t parent) {
  ReplayResult res;
  ScopedSpan whole(tracer, "input", parent, in.name);
  // One span per layer call, parented to the per-input span.
  const auto call = [&](int layer, auto&& fn) {
    ScopedSpan span(tracer, layer_name(layer), whole.id(), in.name);
    fn(span);
    res.layer_ms[layer] += span.finish();
  };

  std::optional<Spec> spec;
  call(kLoad, [&](ScopedSpan&) { spec = load_spec_string(in.text); });
  if (opts.lint) {
    std::optional<LintReport> lint;
    call(kLint, [&](ScopedSpan&) { lint = lint_spec(*spec); });
    if (!lint->ok()) {
      res.failure = "lint: " + lint->first_error();
      return res;
    }
  }
  std::shared_ptr<const StateGraph> sg;
  call(kReach, [&](ScopedSpan& s) {
    const std::size_t cap =
        opts.max_states > 0 ? opts.max_states : Stg::kDefaultMaxStates;
    sg = std::make_shared<const StateGraph>(spec->stg->to_state_graph(cap));
    s.arg("states", static_cast<double>(sg->num_states()));
  });
  const std::shared_ptr<const StateGraph> input_sg = sg;
  res.counts.states = static_cast<double>(sg->num_states());

  std::string property_failure;
  call(kProperties, [&](ScopedSpan&) {
    const std::pair<const char*, PropertyResult> checks[] = {
        {"consistency", check_consistency(*sg)},
        {"determinism", check_determinism(*sg)},
        {"commutativity", check_commutativity(*sg)},
        {"output_persistency", check_output_persistency(*sg)},
    };
    check_usc(*sg);
    for (const auto& [what, r] : checks)
      if (!r.ok && property_failure.empty())
        property_failure = std::string(what) + ": " + r.why;
  });
  if (!property_failure.empty()) {
    res.failure = property_failure;
    return res;
  }
  std::optional<CscAnalysis> analysis;
  call(kCscAnalyze, [&](ScopedSpan& s) {
    analysis = analyze_csc(*sg);
    s.arg("conflict_pairs", analysis->conflict_pairs);
  });
  if (analysis->conflict_pairs > 0) {
    std::optional<CscResult> resolved;
    call(kCscResolve, [&](ScopedSpan& s) {
      resolved = resolve_csc(*sg, opts.csc);
      s.arg("signals_inserted", resolved->signals_inserted);
    });
    if (!resolved->resolved) {
      res.failure = "CSC resolution failed: " + resolved->failure;
      return res;
    }
    sg = resolved->sg;
    res.counts.csc_inserted = resolved->signals_inserted;
  }

  std::optional<Netlist> synth;
  std::vector<SignalSynthesis> syntheses;
  call(kSynth, [&](ScopedSpan& s) {
    synth = synthesize_all(*sg, opts.mc, &syntheses);
    s.arg("literals", synth->total_literals());
  });
  res.counts.synth_literals = synth->total_literals();
  call(kDecomp, [&](ScopedSpan& s) {
    s.arg("literals", tech_decomp2(*synth).literals);
  });

  std::optional<MapResult> mapped;
  call(kMap, [&](ScopedSpan& s) {
    mapped = technology_map(*sg, opts.mapper);
    s.arg("candidates_planned", static_cast<double>(mapped->candidates_planned));
    s.arg("resyntheses", static_cast<double>(mapped->resyntheses));
    s.arg("signals_inserted", mapped->signals_inserted);
  });
  res.counts.candidates_planned = static_cast<double>(mapped->candidates_planned);
  res.counts.resyntheses = static_cast<double>(mapped->resyntheses);
  if (!mapped->implementable) {
    res.input_ms = whole.finish();
    res.facts.outcome = Outcome::kNotImplementable;
    res.facts.digest = fnv64(
        not_implementable(opts.mapper.library.max_literals, mapped->failure));
    return res;
  }
  res.counts.map_inserted = mapped->signals_inserted;
  std::optional<Netlist> netlist;
  call(kMapNetlist,
       [&](ScopedSpan&) { netlist = mapped->build_netlist(opts.mapper.mc); });

  if (opts.check) {
    std::optional<NlintReport> lint;
    call(kNlint, [&](ScopedSpan&) {
      lint = nlint_netlist(*netlist, nullptr, opts.check_opts.nlint);
    });
    if (!lint->ok()) {
      res.failure = "nlint: " + lint->first_error();
      return res;
    }
    std::optional<EquivReport> equiv;
    call(kEquiv, [&](ScopedSpan& s) {
      equiv = check_equivalence(*netlist, opts.check_opts);
      s.arg("bdd_nodes", static_cast<double>(equiv->bdd_nodes));
    });
    res.counts.bdd_nodes = static_cast<double>(equiv->bdd_nodes);
    if (!equiv->ok) {
      res.failure = "equivalence: " + equiv->first_failure();
      return res;
    }
  }
  std::optional<SiVerifyResult> si;
  call(kVerify, [&](ScopedSpan& s) {
    si = verify_speed_independence(*netlist, opts.verify_max_states);
    s.arg("composite_states", static_cast<double>(si->num_states));
  });
  res.counts.composite_states = static_cast<double>(si->num_states);
  if (!si->ok) {
    res.failure = "speed independence: " + si->why;
    return res;
  }
  // Not a flow stage: the correctness check's observational-equivalence
  // call, priced here so its promotion into the flow can be sized.
  std::optional<ObserveResult> obs;
  call(kObserve, [&](ScopedSpan&) {
    obs = observationally_equivalent(*input_sg, *mapped->sg);
  });
  res.input_ms = whole.finish();
  if (!obs->equivalent) {
    res.failure = "observational equivalence: " + obs->why;
    return res;
  }
  res.facts.outcome = Outcome::kMapped;
  res.facts.digest = output_digest(*mapped->sg, *netlist, spec->name);
  res.facts.literals = netlist->total_literals();
  res.facts.inserted = static_cast<int>(mapped->sg->num_signals()) -
                       static_cast<int>(spec->stg->num_signals());
  return res;
}

// ---- statistics and host ------------------------------------------------

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

int host_nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n ? static_cast<int>(n) : 1;
}

void reset_peak_rss() {
  // Return the heap the set-up and reference runs left behind first, so the
  // peak is the measurement's own.
  malloc_trim(0);
  // "5" resets the VmHWM high-water mark (Linux >= 4.0); elsewhere the
  // peak stays the process-lifetime peak.
  std::ofstream out("/proc/self/clear_refs");
  if (out) out << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2e
