// Internal rule entry points for the analysis engine (analyzer.cpp drives
// them; tests go through Analyzer).  Each appends unsuppressed findings —
// the analyzer applies suppressions, allowlists, and ordering.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "finding.hpp"
#include "index.hpp"
#include "source.hpp"
#include "token.hpp"

namespace mc::lint::rules {

/// Files sanctioned to construct ModuleSearcher/ModuleParser (the
/// pipeline-bypass rule's owner set).
bool pipeline_component_owner(const std::string& file);

/// Files sanctioned to construct pe::ParsedImage / elf::ElfImage (the
/// format-bypass rule's owner set: the format libraries themselves).
bool format_plugin_owner(const std::string& file);

/// Files exempt from adhoc-stats and sim-determinism (the telemetry
/// library itself).
bool telemetry_owner(const std::string& file);

/// The ten line rules, in their historical execution order (token rules,
/// bounds, pipeline, format, catch, adhoc-stats).
void legacy_port(const ScannedSource& src, const std::vector<Token>& toks,
                 const std::string& file, std::vector<Finding>& out);

void fallible_discard(const std::vector<Token>& toks, const FunctionIndex& idx,
                      const std::string& file, std::vector<Finding>& out);

void sim_determinism(const std::vector<Token>& toks, const std::string& file,
                     std::vector<Finding>& out);

void guest_taint(const std::vector<Token>& toks, const std::string& file,
                 std::vector<Finding>& out);

void hotpath_copy(const std::vector<Token>& toks, const std::string& file,
                  std::vector<Finding>& out);

void watch_bypass(const std::vector<Token>& toks, const std::string& file,
                  std::vector<Finding>& out);

void shard_bypass(const std::vector<Token>& toks, const std::string& file,
                  std::vector<Finding>& out);

/// Global rule: needs the complete index.  Emits findings only for files
/// in `report_files` (the analyzed set — indexed-only files are context).
void lock_order(const FunctionIndex& idx,
                const std::set<std::string>& report_files,
                std::vector<Finding>& out);

}  // namespace mc::lint::rules
