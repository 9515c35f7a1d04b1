// Workload inputs.  NOTES.md records why each workload and each generator
// size was chosen.

#include <algorithm>
#include <filesystem>

#include "bench.hpp"
#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "stg/g_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace sitm;

namespace {

/// Corpus specs left out of the serve pool: each takes 50-300 ms cold at
/// i=2, so one of them missing the cache would decide a whole window.
constexpr const char* kServeHeavy[] = {"vbe10b", "pe-send-ifc", "mr0"};

/// Fixed seed of the random specs: the quality counts then repeat exactly
/// for every --seed, which drives only the pass order and the requests.
constexpr std::uint64_t kRandomSpecSeed = 0x51a7;

/// Random specs stay small (at most 8 signals, 3-way forks): cheaper than
/// every fixed input they sit next to, so the median input of a pass does
/// not change with the seed.
bench::RandomStgOptions small_random() {
  bench::RandomStgOptions opts;
  opts.max_signals = 8;
  opts.max_fork = 3;
  return opts;
}

Input make_input(std::string name, std::string text) {
  Input in;
  in.spec = load_spec_string(text, SpecFormat::kG);
  in.name = std::move(name);
  in.text = std::move(text);
  return in;
}

Input generated(const std::string& name, const Stg& stg) {
  return make_input(name, write_g_string(stg, name));
}

Input random_input(std::uint64_t k) {
  return generated("random" + std::to_string(k),
                   bench::make_random_stg(mix_seed(kRandomSpecSeed, k),
                                          small_random()));
}

std::vector<Input> corpus(const std::string& root) {
  const std::filesystem::path dir =
      std::filesystem::path(root) / "data" / "benchmarks";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".g") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  if (files.size() != 32)
    throw Error("expected the 32 corpus specs under " + dir.string() +
                ", found " + std::to_string(files.size()));
  std::vector<Input> out;
  for (const auto& f : files)
    out.push_back(make_input(f.stem().string(), slurp_file(f.string())));
  return out;
}

}  // namespace

std::string request_line(const Input& in, const std::string& id,
                         int max_literals, int threads) {
  std::string line = "{\"id\":\"" + Json::escape(id) + "\",\"spec\":\"" +
                     Json::escape(in.text) +
                     "\",\"options\":{\"max_literals\":" +
                     std::to_string(max_literals);
  if (threads != 1)
    line += ",\"synth_threads\":" + std::to_string(threads) +
            ",\"map_threads\":" + std::to_string(threads);
  return line + "}}";
}

FlowOptions flow_options(int max_literals, int threads) {
  FlowOptions opts;
  opts.lint = true;
  opts.check = true;
  opts.mapper.library.max_literals = max_literals;
  opts.mc.threads = threads;
  opts.mapper.threads = threads;
  return opts;
}

serve::ServeOptions serve_options(std::size_t cache_bytes) {
  serve::ServeOptions opts;
  opts.flow = flow_options(2, 1);
  opts.threads = 2;
  opts.cache_bytes = cache_bytes;
  opts.cache_shards = 4;
  return opts;
}

Workload make_workload(const std::string& name, const std::string& root) {
  Workload w;
  w.name = name;
  int max_literals = 2;
  if (name == "corpus") {
    w.inputs = corpus(root);
    w.tail_pct = 95;
  } else if (name == "ladder-mt") {
    for (int k = 6; k <= 8; ++k)
      w.inputs.push_back(generated("parallelizer" + std::to_string(k),
                                   bench::make_parallelizer(k)));
    w.inputs.push_back(generated("combo5_3", bench::make_combo(5, 3)));
    w.inputs.push_back(generated("combo6_3", bench::make_combo(6, 3)));
    w.inputs.push_back(generated("combo6_4", bench::make_combo(6, 4)));
    // Half the cores, at least 2 and at most 4: on a shared host a
    // co-tenant slowing one core stalls every mapper round whose barrier
    // waits on it, and with every core in use that hits each round
    // (measured: 2.5x swings at 4 threads on 4 cores while 1-thread runs
    // held steady).  The floor keeps util/parallel doing the work on 2- and
    // 3-core hosts.
    w.threads = std::clamp(host_nproc() / 2, 2, 4);
    w.tail_pct = 75;
  } else if (name == "wide-lib") {
    // tree(4) is left out on purpose: see NOTES.md (known defect).
    w.inputs.push_back(generated("tree3", bench::make_tree(3)));
    w.inputs.push_back(generated("csc_ring4", bench::make_csc_ring(4)));
    w.inputs.push_back(generated("csc_ring5", bench::make_csc_ring(5)));
    w.inputs.push_back(
        generated("csc_diamond_ring3_3", bench::make_csc_diamond_ring(3, 3)));
    w.inputs.push_back(generated("shared_out8", bench::make_shared_out(8)));
    w.inputs.push_back(generated("parallelizer8", bench::make_parallelizer(8)));
    w.inputs.push_back(generated("combo6_4", bench::make_combo(6, 4)));
    for (std::uint64_t k = 0; k < 4; ++k) w.inputs.push_back(random_input(k));
    max_literals = 8;
    w.tail_pct = 95;
  } else if (name == "serve-zipf") {
    for (Input& in : corpus(root))
      if (std::find(std::begin(kServeHeavy), std::end(kServeHeavy),
                    in.name) == std::end(kServeHeavy))
        w.inputs.push_back(std::move(in));
    for (std::uint64_t k = 0; k < 11; ++k) w.inputs.push_back(random_input(k));
    for (std::size_t i = 0; i < w.inputs.size(); ++i) {
      for (const int lits : {2, 3}) {
        Item item;
        item.input = i;
        item.max_literals = lits;
        item.name = w.inputs[i].name + "@i" + std::to_string(lits);
        item.line = request_line(w.inputs[i], item.name, lits, 1);
        w.items.push_back(std::move(item));
      }
    }
    w.tail_pct = 99;
    return w;
  } else {
    throw Error("unknown workload: " + name);
  }
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    Item item;
    item.input = i;
    item.max_literals = max_literals;
    item.name = w.inputs[i].name;
    w.items.push_back(std::move(item));
  }
  return w;
}

}  // namespace e2e
