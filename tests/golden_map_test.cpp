// Golden mapping pin: every Table-1 corpus spec mapped onto 2-literal gates
// through the full flow (as `sitm map --eqn` runs it), pinned by the number
// of inserted signals, the mapped netlist's literals, and a 64-bit digest
// of the emitted .eqn text plus every committed step's divisors.  Any
// search shortcut in the mapper must reproduce these bit for bit.  The
// digest folds bytes through hash_mix, so it does not depend on the
// standard library's std::hash.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>

#include "benchlib/suite.hpp"
#include "flow/flow.hpp"
#include "util/flat_map.hpp"

#ifndef SITM_SOURCE_DIR
#define SITM_SOURCE_DIR "."
#endif

namespace sitm {
namespace {

struct Golden {
  const char* name;
  int signals_inserted;
  int literals;
  std::uint64_t digest;
};

// On a mismatch the failure message prints the whole table as measured; an
// intended change of mapping re-pins by pasting it here.
const Golden kGolden[] = {
    {"alloc-outbound", 0, 10, 0xb6ab7f495b2c481aULL},
    {"chu133", 0, 3, 0x58877abb4742aa39ULL},
    {"chu150", 0, 2, 0xcaed2023bed0f50fULL},
    {"converta", 0, 3, 0x761a9a7d70b44a23ULL},
    {"dff", 0, 4, 0x8beeb334aec72648ULL},
    {"ebergen", 0, 5, 0x0b5b73c31f6273a0ULL},
    {"half", 0, 6, 0x6e32c39e01a4b2baULL},
    {"hazard", 1, 7, 0x6861220022270c04ULL},
    {"master-read", 2, 16, 0x3aba1c068eecf33dULL},
    {"mmu", 3, 20, 0x5290383c88cc332fULL},
    {"mp-forward-pkt", 0, 10, 0x06d81ce8515ad985ULL},
    {"mr0", 4, 26, 0x99293e4ac1443f87ULL},
    {"mr1", 3, 21, 0x3a60cb0636d431d1ULL},
    {"nak-pa", 0, 5, 0x7d2b9763f04439bbULL},
    {"nowick", 1, 4, 0xc4755e0e5e802c50ULL},
    {"pe-rcv-ifc", 2, 22, 0x69b570f0a5f215c1ULL},
    {"pe-send-ifc", 4, 26, 0x76d273c6ea46edadULL},
    {"ram-read-sbuf", 1, 10, 0xb3c32d02756cfbe3ULL},
    {"rcv-setup", 0, 2, 0xfdcf0f14944d8113ULL},
    {"rlm", 1, 11, 0xd70033cba3821dc8ULL},
    {"sbuf-ram-write", 1, 11, 0xf78a82ae52513293ULL},
    {"sbuf-send-ctl", 0, 5, 0xa05510de6902f73bULL},
    {"sbuf-send-pkt2", 1, 16, 0x83144307c76b505aULL},
    {"seq-mix", 1, 12, 0xb5280c8457c2e12cULL},
    {"seq4", 0, 5, 0x63bd5213aed3a465ULL},
    {"trimos-send", 2, 15, 0x63575ecf375187c7ULL},
    {"tsend-bm", 3, 21, 0x1240953516547efbULL},
    {"vbe5b", 1, 11, 0x401cf193efe39526ULL},
    {"vbe5c", 0, 4, 0x31297c6e61bd55acULL},
    {"vbe6a", 0, 10, 0xac8759b7970993aaULL},
    {"vbe10b", 5, 31, 0x420eda0702d03c13ULL},
    {"wrdatab", 3, 22, 0xd396f1eaf020cb35ULL},
};

std::uint64_t fold(std::uint64_t h, const std::string& text) {
  for (const unsigned char c : text) h = hash_mix(h ^ c);
  return hash_mix(h ^ text.size());
}

TEST(GoldenMap, CorpusAtTwoLiteralsIsPinned) {
  std::string rows;
  int checked = 0;
  for (const auto& name : bench::suite_names()) {
    FlowOptions opts;
    opts.mapper.library.max_literals = 2;
    opts.capture_emitted = true;
    Flow flow(opts);
    const FlowReport report = flow.run_file(
        (std::filesystem::path(SITM_SOURCE_DIR) / "data" / "benchmarks" /
         (name + ".g"))
            .string());
    ASSERT_TRUE(report.ok) << name << ": " << report.failure;
    const FlowContext& ctx = flow.context();
    ASSERT_TRUE(ctx.mapped && ctx.netlist) << name;

    std::vector<std::string> names;
    for (const auto& s : ctx.mapped->sg->signals()) names.push_back(s.name);
    std::uint64_t digest = fold(0x9e3779b97f4a7c15ULL, ctx.emitted_eqn);
    for (const MapStep& step : ctx.mapped->steps) {
      digest = fold(digest, step.new_signal);
      digest = fold(digest, step.divisor.to_string(names));
      digest = fold(digest, step.divisor_reset.to_string(names));
    }
    const int inserted = ctx.mapped->signals_inserted;
    const int literals = ctx.netlist->total_literals();

    char row[128];
    std::snprintf(row, sizeof row, "    {\"%s\", %d, %d, 0x%016" PRIx64 "ULL},\n",
                  name.c_str(), inserted, literals, digest);
    rows += row;
    const Golden* pin = nullptr;
    for (const Golden& g : kGolden)
      if (name == g.name) pin = &g;
    if (!pin) continue;
    ++checked;
    EXPECT_EQ(inserted, pin->signals_inserted) << name;
    EXPECT_EQ(literals, pin->literals) << name;
    EXPECT_EQ(digest, pin->digest) << name;
  }
  EXPECT_EQ(checked, 32);
  if (HasFailure()) ADD_FAILURE() << "actual table:\n" << rows;
}

}  // namespace
}  // namespace sitm
