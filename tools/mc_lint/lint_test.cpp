// mc_lint self-tests for the ten line rules: fixture files with known
// violations (exact rule IDs, line numbers and message text), the
// suppression mechanism, and the comment/string stripper's corner cases.
// Every case runs the full analyzer, so these expectations pin the line
// rules' quirks and also prove that no semantic rule fires on the corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace {

using mc::lint::Analyzer;
using mc::lint::Finding;

std::string fixture(const std::string& name) {
  return std::string(MC_LINT_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Analyzes one in-memory file on its own; `file_name` is for reporting
/// and the owner predicates only.  Findings are ordered by line.
std::vector<Finding> lint_source(const std::string& file_name,
                                 const std::string& content) {
  Analyzer a;
  a.add_source(file_name, content);
  return a.run().findings;
}

std::vector<Finding> lint_file(const std::string& path) {
  return lint_source(path, read_file(path));
}

/// Analyzes every *.cpp / *.hpp under `root` in one run, as the CLI does
/// for a directory argument.
std::vector<Finding> lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".cpp" || ext == ".hpp")) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  Analyzer a;
  for (const std::string& file : files) {
    a.add_source(file, read_file(file));
  }
  return a.run().findings;
}

TEST(LintRules, CatalogIsStable) {
  // The ten line rules lead the one catalog, in a fixed order; the
  // semantic rules follow them (AnalyzeCatalog.SeventeenRules).
  const auto& ids = mc::lint::rule_ids();
  const std::vector<std::string> line_rules = {
      "raw-reinterpret-cast", "raw-memcpy",          "std-rand",
      "naked-new",            "naked-delete",        "parser-bounds-check",
      "pipeline-bypass",      "format-bypass",       "catch-swallow",
      "adhoc-stats"};
  ASSERT_GE(ids.size(), line_rules.size());
  EXPECT_TRUE(std::equal(line_rules.begin(), line_rules.end(), ids.begin()));
}

TEST(LintFixtures, RawReinterpretCast) {
  const auto findings = lint_file(fixture("raw_reinterpret_cast.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-reinterpret-cast");
  EXPECT_EQ(findings[0].line, 6);
}

TEST(LintFixtures, RawMemcpy) {
  const auto findings = lint_file(fixture("raw_memcpy.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-memcpy");
  EXPECT_EQ(findings[0].line, 6);
}

TEST(LintFixtures, StdRand) {
  const auto findings = lint_file(fixture("std_rand.cpp"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "std-rand");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_EQ(findings[1].rule, "std-rand");
  EXPECT_EQ(findings[1].line, 7);
}

TEST(LintFixtures, NakedNewAndDelete) {
  const auto findings = lint_file(fixture("naked_new.cpp"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "naked-new");
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_EQ(findings[1].rule, "naked-delete");
  EXPECT_EQ(findings[1].line, 7);
}

TEST(LintFixtures, ParserBoundsCheck) {
  const auto findings = lint_file(fixture("bounds.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "parser-bounds-check");
  EXPECT_EQ(findings[0].line, 9);
  EXPECT_NE(findings[0].message.find("'image'"), std::string::npos);
}

TEST(LintFixtures, PipelineBypass) {
  // Flagged: the owning member (8), the named local (12), the temporary
  // (13) and the default-constructed local (14).  Not flagged: the forward
  // declaration (5), the allow()-escaped construction (16) and the
  // reference/pointer parameters (20).
  const auto findings = lint_file(fixture("pipeline_bypass.cpp"));
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "pipeline-bypass");
  }
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_EQ(findings[1].line, 12);
  EXPECT_EQ(findings[2].line, 13);
  EXPECT_EQ(findings[3].line, 14);
}

TEST(LintFixtures, FormatBypass) {
  // Flagged: the owning member (8), the named local (12), the temporary
  // (13) and the default-constructed local (14).  Not flagged: the forward
  // declaration (5), the allow()-escaped construction (16) and the
  // reference/pointer parameters (20).
  const auto findings = lint_file(fixture("format_bypass.cpp"));
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "format-bypass");
  }
  EXPECT_EQ(findings[0].line, 8);
  EXPECT_EQ(findings[1].line, 12);
  EXPECT_EQ(findings[2].line, 13);
  EXPECT_EQ(findings[3].line, 14);
}

TEST(LintFixtures, CatchSwallow) {
  // Flagged: the same-line catch-all (7), the empty typed handler (12),
  // the comment-only handler (21) and the multi-line catch-all (26).
  // Not flagged: the non-empty typed handler (16) and the
  // allow()-escaped catch-all (33).
  const auto findings = lint_file(fixture("catch_swallow.cpp"));
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "catch-swallow");
  }
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_EQ(findings[1].line, 12);
  EXPECT_EQ(findings[2].line, 21);
  EXPECT_EQ(findings[3].line, 26);
  EXPECT_NE(findings[0].message.find("catch (...)"), std::string::npos);
  EXPECT_NE(findings[1].message.find("empty catch body"), std::string::npos);
}

TEST(LintFixtures, AdhocStats) {
  // Flagged: the named stats struct (5) and the bare `struct Stats` (9).
  // Not flagged: the forward declaration (11), the allow()-escaped
  // definition (14) and the non-Stats struct (18).
  const auto findings = lint_file(fixture("adhoc_stats.cpp"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "adhoc-stats");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("'ScanStats'"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "adhoc-stats");
  EXPECT_EQ(findings[1].line, 9);
}

TEST(LintSource, TelemetryOwnsItsStatsStructs) {
  const std::string body = "struct ReaderStats { int n = 0; };\n";
  EXPECT_TRUE(lint_source("src/telemetry/registry.hpp", body).empty());
  EXPECT_TRUE(lint_source("/abs/src/telemetry/internal.cpp", body).empty());
  EXPECT_EQ(lint_source("src/vmi/session.hpp", body).size(), 1u);
}

TEST(LintSource, TypedNonEmptyHandlerIsClean) {
  const auto findings = lint_source(
      "ok.cpp",
      "void f() {\n"
      "  try { g(); } catch (const VmiError& e) { record(e); }\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, CatchBodyHoldingOnlyAStringIsNotEmpty) {
  // The stripper blanks string *contents* but keeps the quotes, so a body
  // that does something with a literal must not read as whitespace-only.
  const auto findings = lint_source(
      "str.cpp",
      "void f() {\n"
      "  try { g(); } catch (const VmiError&) { log(\"vmi\"); }\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, PipelineOwnersAreExempt) {
  const std::string body = "ModuleSearcher searcher(session);\n";
  EXPECT_TRUE(lint_source("src/modchecker/pipeline.cpp", body).empty());
  EXPECT_TRUE(lint_source("src/modchecker/searcher.cpp", body).empty());
  EXPECT_TRUE(lint_source("/abs/path/src/modchecker/parser.hpp", body).empty());
  EXPECT_EQ(lint_source("src/service/fleet.cpp", body).size(), 1u);
}

TEST(LintSource, FormatPluginOwnersAreExempt) {
  const std::string body = "const ParsedImage parsed(mapped);\n";
  EXPECT_TRUE(lint_source("src/pe/format_plugin.cpp", body).empty());
  EXPECT_TRUE(lint_source("/abs/src/elf/loader.cpp", body).empty());
  EXPECT_EQ(lint_source("src/baselines/disk_crossview.cpp", body).size(), 1u);
}

TEST(LintFixtures, SuppressionsSameLineAndPrecedingLine) {
  // Lines 6 and 8 are suppressed; line 9 carries an allow() for the WRONG
  // rule and must still be reported.
  const auto findings = lint_file(fixture("suppressed.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-memcpy");
  EXPECT_EQ(findings[0].line, 9);
}

TEST(LintFixtures, CleanFileHasNoFindings) {
  const auto findings = lint_file(fixture("clean.cpp"));
  for (const auto& f : findings) {
    ADD_FAILURE() << mc::lint::format_finding(f);
  }
}

TEST(LintFixtures, TreeScanCoversEveryFixture) {
  // 2 + 1 + 1 + 2 + 2 + 1 + 1 + 4 + 4 + 4 + 0 findings across the directory.
  const auto findings = lint_tree(MC_LINT_FIXTURE_DIR);
  EXPECT_EQ(findings.size(), 22u);
}

TEST(LintSource, CommentsAndStringsDoNotFire) {
  const auto findings = lint_source("mem.cpp",
                                    "// memcpy(a, b, n)\n"
                                    "/* reinterpret_cast<int*>(p) */\n"
                                    "const char* s = \"delete new rand\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, BlockCommentSpanningLinesIsStripped) {
  const auto findings = lint_source("block.cpp",
                                    "/* first line\n"
                                    "   memcpy(a, b, n)\n"
                                    "   last */\n"
                                    "int x = 0;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, MemcpyAfterBlockCommentStillFires) {
  const auto findings =
      lint_source("mixed.cpp", "/* doc */ std::memcpy(a, b, n);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-memcpy");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintSource, SizeComparisonCountsAsValidation) {
  const auto findings = lint_source(
      "parse.cpp",
      "int parse(ByteView b) {\n"
      "  if (b.size() < 4) { return -1; }\n"
      "  return b[0];\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, LoadLeCountsAsValidation) {
  const auto findings =
      lint_source("parse.cpp",
                  "int parse(ByteView b) {\n"
                  "  const auto magic = load_le16(b, 0);\n"
                  "  return magic + b[2];\n"
                  "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, MutableByteViewParameterIsTracked) {
  const auto findings = lint_source("store.cpp",
                                    "void put(MutableByteView out) {\n"
                                    "  out[0] = 1;\n"
                                    "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "parser-bounds-check");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintSource, LocalByteViewDeclarationIsNotAParameter) {
  // A ByteView local introduced by a statement (terminated with ';')
  // must not leak into the next brace scope.
  const auto findings = lint_source("local.cpp",
                                    "void f() {\n"
                                    "  ByteView v = whole;\n"
                                    "  if (cond) {\n"
                                    "    use(v);\n"
                                    "  }\n"
                                    "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSource, FormatFindingIsGrepFriendly) {
  const Finding f{"src/pe/parser.cpp", 12, "raw-memcpy", "msg"};
  EXPECT_EQ(mc::lint::format_finding(f),
            "src/pe/parser.cpp:12: [raw-memcpy] msg");
}

TEST(LintSource, MultipleRulesInOneAllowList) {
  const auto findings = lint_source(
      "multi.cpp",
      "void* p = new int;  // mc-lint: allow(naked-new, raw-memcpy)\n");
  EXPECT_TRUE(findings.empty());
}

}  // namespace
