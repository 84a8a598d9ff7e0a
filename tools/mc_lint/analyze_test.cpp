// mc_analyze self-tests: the rule catalog, fixture files per semantic rule
// (true positives at exact lines, suppressed sites, near-miss negatives),
// cross-file indexing, option plumbing, SARIF structure, and recorded file
// errors.  The line rules' fixtures live in lint_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "sarif.hpp"

namespace {

using mc::lint::AnalyzeOptions;
using mc::lint::AnalyzeResult;
using mc::lint::Analyzer;
using mc::lint::Finding;

std::string fixture(const std::string& name) {
  return std::string(MC_ANALYZE_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs the analyzer over one fixture file in isolation.
AnalyzeResult analyze_fixture(const std::string& name,
                              const AnalyzeOptions& opts = {}) {
  Analyzer a;
  const std::string path = fixture(name);
  a.add_source(path, read_file(path));
  return a.run(opts);
}

/// The 1-based lines on which `rule` fired.
std::vector<int> lines_of(const AnalyzeResult& result,
                          const std::string& rule) {
  std::vector<int> lines;
  for (const Finding& f : result.findings) {
    if (f.rule == rule) {
      lines.push_back(f.line);
    }
  }
  return lines;
}

// ---- Catalog ---------------------------------------------------------------

TEST(AnalyzeCatalog, SeventeenRules) {
  const auto& ids = mc::lint::rule_ids();
  ASSERT_EQ(ids.size(), 17u);
  // The ten line rules, then the seven semantic rules.
  for (const char* rule :
       {"raw-reinterpret-cast", "raw-memcpy", "std-rand", "naked-new",
        "naked-delete", "parser-bounds-check", "pipeline-bypass",
        "format-bypass", "catch-swallow", "adhoc-stats", "fallible-discard",
        "lock-order", "sim-determinism", "guest-taint", "hotpath-copy",
        "watch-bypass", "shard-bypass"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end()) << rule;
  }
  EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()).size(), 17u);
}

// ---- fallible-discard ------------------------------------------------------

TEST(AnalyzeFixtures, FallibleDiscard) {
  const auto result = analyze_fixture("fallible_discard.cpp");
  EXPECT_EQ(lines_of(result, "fallible-discard"),
            (std::vector<int>{16, 17, 18, 19}));
  // Nothing else fires: the suppressed site and every sanctioned use stay
  // quiet, and no other rule triggers on this fixture.
  EXPECT_EQ(result.findings.size(), 4u);
}

TEST(AnalyzeIndex, CrossFileDiscard) {
  Analyzer a;
  a.index_source("api.hpp",
                 "[[nodiscard]] Fallible<int> try_load();\n"
                 "MaybeFault try_flush();\n");
  a.add_source("caller.cpp",
               "void f() {\n"
               "  try_load();\n"
               "  try_flush();\n"
               "  Fallible<int> r = try_load();\n"
               "}\n");
  const auto result = a.run();
  EXPECT_EQ(lines_of(result, "fallible-discard"), (std::vector<int>{2, 3}));
  // The index recorded the return types and the [[nodiscard]] annotation.
  const auto& decls = a.index().decls();
  ASSERT_TRUE(decls.count("try_load") > 0);
  EXPECT_EQ(decls.at("try_load").return_type, "Fallible<int>");
  EXPECT_TRUE(decls.at("try_load").nodiscard);
  ASSERT_TRUE(decls.count("try_flush") > 0);
  EXPECT_EQ(decls.at("try_flush").return_type, "MaybeFault");
  EXPECT_FALSE(decls.at("try_flush").nodiscard);
}

// ---- lock-order ------------------------------------------------------------

TEST(AnalyzeFixtures, LockOrderAbba) {
  const auto result = analyze_fixture("lock_order_abba.cpp");
  EXPECT_EQ(lines_of(result, "lock-order"), (std::vector<int>{18, 23}));
  EXPECT_EQ(result.findings.size(), 2u);
  // Each message cross-references the opposite site.
  EXPECT_NE(result.findings[0].message.find("bad_second"), std::string::npos);
  EXPECT_NE(result.findings[1].message.find("bad_first"), std::string::npos);
}

TEST(AnalyzeFixtures, LockOrderServiceBlocking) {
  const auto result = analyze_fixture("lock_order_service.cpp");
  EXPECT_EQ(lines_of(result, "lock-order"), (std::vector<int>{20, 21}));
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(AnalyzeFixtures, LockOrderInlinesOneCallLevel) {
  // f holds `a_` and calls g, which acquires `b_`; h takes them in the
  // opposite order directly.  The inversion is only visible through the
  // one-level inline.
  Analyzer a;
  a.add_source("inline.cpp",
               "void g() {\n"
               "  std::scoped_lock lb(b_);\n"
               "}\n"
               "void f() {\n"
               "  std::scoped_lock la(a_);\n"
               "  g();\n"
               "}\n"
               "void h() {\n"
               "  std::scoped_lock lb(b_);\n"
               "  std::scoped_lock la(a_);\n"
               "}\n");
  const auto result = a.run();
  const auto lines = lines_of(result, "lock-order");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 6);   // the call site in f carries the a_->b_ edge
  EXPECT_EQ(lines[1], 10);  // the direct b_->a_ acquisition in h
}

// ---- sim-determinism -------------------------------------------------------

TEST(AnalyzeFixtures, SimDeterminism) {
  const auto result = analyze_fixture("sim_determinism.cpp");
  EXPECT_EQ(lines_of(result, "sim-determinism"),
            (std::vector<int>{17, 18, 19, 28}));
  EXPECT_EQ(result.findings.size(), 4u);
}

TEST(AnalyzeFixtures, SimDeterminismIgnoresHostTimeTus) {
  // Same constructs, no simulated-time vocabulary: not our business.
  const auto result = analyze_fixture("sim_determinism_free.cpp");
  EXPECT_TRUE(result.findings.empty());
}

// ---- guest-taint -----------------------------------------------------------

TEST(AnalyzeFixtures, GuestTaint) {
  const auto result = analyze_fixture("guest_taint.cpp");
  EXPECT_EQ(lines_of(result, "guest-taint"),
            (std::vector<int>{9, 11, 13, 39}));
  EXPECT_EQ(result.findings.size(), 4u);
}

// ---- hotpath-copy ----------------------------------------------------------

TEST(AnalyzeFixtures, HotpathCopy) {
  const auto result = analyze_fixture("hotpath_copy.cpp");
  // Line 13 carries two findings: the owned `Bytes` declaration and the
  // allocating content_copy() call.  The suppressed dump site, the arena /
  // caller-scratch copies and the pairwise *assignment* stay quiet.
  EXPECT_EQ(lines_of(result, "hotpath-copy"), (std::vector<int>{13, 13, 32}));
  EXPECT_EQ(result.findings.size(), 3u);
}

TEST(AnalyzeFixtures, HotpathCopyIgnoresDispatchedAndColdTus) {
  // Same constructs in a TU that routes through the simd dispatcher: the
  // pairwise compare is the guarded scalar tail, not a bypass.
  Analyzer a;
  a.add_source("dispatched.cpp",
               "void tail(const unsigned char* a, const unsigned char* b,\n"
               "          int n, int j) {\n"
               "  adjust_rvas(a, 1, b, 2);\n"
               "  j = simd::mismatch(a, b, n, 0);\n"
               "  if (a[j] != b[j]) { consume(j); }\n"
               "}\n");
  // And without the hot-path vocabulary the rule is not our business.
  a.add_source("cold.cpp",
               "void f(const Item& item) {\n"
               "  Bytes flat = item.content_copy();\n"
               "  consume(flat);\n"
               "}\n");
  const auto result = a.run();
  EXPECT_TRUE(lines_of(result, "hotpath-copy").empty());
}

// ---- watch-bypass ----------------------------------------------------------

TEST(AnalyzeFixtures, WatchBypass) {
  const auto result = analyze_fixture("watch_bypass.cpp");
  // The version sweep and the raw counter poll fire; the suppressed debug
  // probe, the WriteWatch query and the bare identifier stay quiet.
  EXPECT_EQ(lines_of(result, "watch-bypass"), (std::vector<int>{10, 18}));
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(AnalyzeFixtures, WatchBypassSanctionedTus) {
  // The facility and its producer legitimately touch the raw stamps: any
  // path mentioning write_watch or phys_mem is exempt wholesale.
  const std::string body = read_file(fixture("watch_bypass.cpp"));
  for (const char* name : {"src/vmm/write_watch.cpp", "src/vmm/phys_mem.cpp",
                           "vmm/write_watch_extra.hpp"}) {
    Analyzer a;
    a.add_source(name, body);
    EXPECT_TRUE(lines_of(a.run(), "watch-bypass").empty()) << name;
  }
}

// ---- shard-bypass ----------------------------------------------------------

TEST(AnalyzeFixtures, ShardBypass) {
  const auto result = analyze_fixture("shard_bypass.cpp");
  // Stack, new and make_unique/make_shared constructions fire; the
  // ShardCoordinator path, the reference parameter, the qualified nested
  // type and the suppressed harness stay quiet.
  EXPECT_EQ(lines_of(result, "shard-bypass"),
            (std::vector<int>{9, 14, 19, 20}));
  EXPECT_EQ(result.findings.size(), 4u);
}

TEST(AnalyzeFixtures, ShardBypassSanctionedTus) {
  // The service layer owns the guarded types, and tests exercise their
  // internals on purpose: both path families are exempt wholesale.
  const std::string body = read_file(fixture("shard_bypass.cpp"));
  for (const char* name :
       {"src/service/coordinator.cpp", "src/service/fleet_extra.hpp",
        "tests/shard_coordinator_test.cpp"}) {
    Analyzer a;
    a.add_source(name, body);
    EXPECT_TRUE(lines_of(a.run(), "shard-bypass").empty()) << name;
  }
}

// ---- Options ---------------------------------------------------------------

TEST(AnalyzeOptionsTest, DisabledRuleIsSkipped) {
  AnalyzeOptions opts;
  opts.disabled.insert("guest-taint");
  const auto result = analyze_fixture("guest_taint.cpp", opts);
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeOptionsTest, AllowPathDropsMatchingFiles) {
  AnalyzeOptions opts;
  opts.allow_paths.emplace_back("guest-taint", "fixtures_analyze");
  const auto result = analyze_fixture("guest_taint.cpp", opts);
  EXPECT_TRUE(result.findings.empty());
  // A non-matching substring changes nothing.
  AnalyzeOptions miss;
  miss.allow_paths.emplace_back("guest-taint", "no/such/dir");
  EXPECT_EQ(analyze_fixture("guest_taint.cpp", miss).findings.size(), 4u);
}

// ---- SARIF -----------------------------------------------------------------

TEST(AnalyzeSarif, StructurallyValid) {
  const auto result = analyze_fixture("guest_taint.cpp");
  ASSERT_FALSE(result.findings.empty());
  const std::string sarif =
      mc::lint::to_sarif(result.findings, mc::lint::rule_ids());

  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"mc_analyze\""), std::string::npos);
  for (const std::string& rule : mc::lint::rule_ids()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + rule + "\"}"), std::string::npos)
        << rule;
  }
  for (const Finding& f : result.findings) {
    EXPECT_NE(sarif.find("\"startLine\": " + std::to_string(f.line)),
              std::string::npos);
  }
  // Balanced structure and no raw control characters (the JSON must parse;
  // CI additionally validates with a real parser).
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
            std::count(sarif.begin(), sarif.end(), '}'));
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '['),
            std::count(sarif.begin(), sarif.end(), ']'));
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '"') % 2, 0);
}

TEST(AnalyzeSarif, EscapesMessageText) {
  const std::vector<Finding> findings = {
      {"dir/f.cpp", 3, "guest-taint", "quote \" backslash \\ tab \t done"}};
  const std::string sarif =
      mc::lint::to_sarif(findings, mc::lint::rule_ids());
  EXPECT_NE(sarif.find("quote \\\" backslash \\\\ tab \\t done"),
            std::string::npos);
  EXPECT_EQ(sarif.find('\t'), std::string::npos);
}

// ---- Error resilience ------------------------------------------------------

TEST(AnalyzeErrors, AnalyzerSurfacesRecordedErrors) {
  Analyzer a;
  a.add_error("gone.cpp: cannot read");
  a.add_source("ok.cpp", "void f() {}\n");
  const auto result = a.run();
  EXPECT_TRUE(result.findings.empty());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0], "gone.cpp: cannot read");
}

}  // namespace
