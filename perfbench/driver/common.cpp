#include "common.hpp"

#include <fstream>

#include "attacks/guest_writer.hpp"
#include "elf/parser.hpp"
#include "pe/parser.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace mcore = mc::core;

void Result::set_quantile(const std::string& name, const Quantile& q,
                          const std::string& unit, bool is_tail) {
  set(name, q.value, unit);
  note(name + ": " + std::to_string(q.samples) + " samples, " +
       std::to_string(q.beyond) + " beyond");
  if (q.samples == 0 || (is_tail && !q.supported)) {
    checks_passed = false;
    note(name + ": too few samples for this percentile");
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 over (seed, salt).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---- guests ----------------------------------------------------------------

TextRange pe_text(mc::cloud::CloudEnvironment& env, DomainId vm,
                  const std::string& module) {
  mc::attacks::GuestMemoryWriter writer(env, vm);
  const mc::Bytes image = writer.read_module_image(module);
  const mc::pe::ParsedImage parsed{mc::ByteView(image)};
  for (const mc::pe::SectionHeader& sh : parsed.sections()) {
    if (sh.is_code() && sh.VirtualSize > 0) {
      return TextRange{sh.VirtualAddress, sh.VirtualSize};
    }
  }
  throw mc::NotFoundError("no code section in " + module);
}

TextRange elf_text(const mc::cloud::LinuxEnvironment& env,
                   const std::string& module) {
  const mc::elf::ElfImage image{mc::ByteView(env.golden_file(module))};
  const mc::elf::Elf64Shdr* sh = image.find_section(".text");
  if (sh == nullptr || sh->sh_size == 0) {
    throw mc::NotFoundError("no .text in " + module);
  }
  return TextRange{static_cast<std::uint32_t>(sh->sh_offset),
                   static_cast<std::uint32_t>(sh->sh_size)};
}

std::uint8_t elf_read_byte(mc::cloud::LinuxEnvironment& env, DomainId vm,
                           std::uint32_t va) {
  std::uint8_t value = 0;
  env.kernel(vm).address_space().read_virtual(va,
                                              mc::MutableByteView(&value, 1));
  return value;
}

void elf_write_byte(mc::cloud::LinuxEnvironment& env, DomainId vm,
                    std::uint32_t va, std::uint8_t value) {
  env.kernel(vm).address_space().write_virtual(va, mc::ByteView(&value, 1));
}

std::uint8_t pe_flip_byte(mc::cloud::CloudEnvironment& env, DomainId vm,
                          const std::string& module, std::uint32_t rva) {
  const auto* rec = env.loader(vm).find(module);
  if (rec == nullptr) {
    throw mc::NotFoundError("module not loaded: " + module);
  }
  mc::attacks::GuestMemoryWriter writer(env, vm);
  const std::uint8_t old = writer.read(rec->base + rva, 1)[0];
  const auto flipped = static_cast<std::uint8_t>(old ^ 0xFF);
  writer.write(rec->base + rva, mc::ByteView(&flipped, 1));
  return old;
}

// ---- ground truth ------------------------------------------------------------

std::size_t verdict_errors(const mcore::PoolScanReport& report,
                           const std::set<DomainId>& infected,
                           const std::set<DomainId>& may_quarantine) {
  std::size_t errors = 0;
  for (const mcore::PoolVmVerdict& v : report.verdicts) {
    if (v.quarantined) {
      errors += may_quarantine.count(v.vm) != 0 ? 0u : 1u;
      continue;
    }
    const bool should_flag = infected.count(v.vm) != 0;
    errors += v.clean == should_flag ? 1 : 0;
  }
  return errors;
}

bool same_verdicts(const std::vector<mcore::PoolVmVerdict>& a,
                   const std::vector<mcore::PoolVmVerdict>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].vm != b[i].vm || a[i].clean != b[i].clean ||
        a[i].successes != b[i].successes || a[i].total != b[i].total ||
        a[i].quarantined != b[i].quarantined) {
      return false;
    }
  }
  return true;
}

// ---- registry counters -------------------------------------------------------

namespace {

// The registry counters the per-layer metrics are derived from.
const char* const kCounterNames[] = {
    "vmm.phys.bytes_read",
    "vmi.translations",
    "vmi.translation_cache_hits",
    "vmi.pool.reused",
    "vmi.pool.created",
    "canonical.eligible",
    "canonical.ineligible",
    "canonical.canonicals_established",
    "digest_memo.hits",
    "digest_memo.misses",
    "pipeline.acquire.retries",
};

}  // namespace

Counters Counters::take() {
  mc::telemetry::MetricRegistry& reg =
      mc::telemetry::MetricRegistry::process_default();
  Counters out;
  for (const char* name : kCounterNames) {
    out.values_[name] = reg.counter(name).value();
  }
  return out;
}

std::uint64_t Counters::delta(const Counters& before, const Counters& after,
                              const std::string& name) {
  const auto a = after.values_.find(name);
  const auto b = before.values_.find(name);
  const std::uint64_t hi = a == after.values_.end() ? 0 : a->second;
  const std::uint64_t lo = b == before.values_.end() ? 0 : b->second;
  return hi >= lo ? hi - lo : 0;
}

void set_common_layer_metrics(Result& result, const Counters& before,
                              const Counters& after, const SimSplit& sim,
                              const SpanRecorder& spans, double ops) {
  const auto d = [&](const char* name) {
    return static_cast<double>(Counters::delta(before, after, name));
  };
  const double scans = static_cast<double>(sim.seen);
  result.set("vmm.phys_bytes_read_per_scan",
             ratio(d("vmm.phys.bytes_read"), scans), "count");

  result.set("vmi.translations", d("vmi.translations"), "count");
  result.set("vmi.tlb_hit_ratio",
             ratio(d("vmi.translation_cache_hits"), d("vmi.translations")),
             "ratio");
  const double leases = d("vmi.pool.reused") + d("vmi.pool.created");
  result.set("vmi.session_leases", leases, "count");
  result.set("vmi.session_reuse_ratio", ratio(d("vmi.pool.reused"), leases),
             "ratio");

  const double copies = d("canonical.eligible") + d("canonical.ineligible");
  result.set("normalize.copies", copies, "count");
  result.set("normalize.eligible_ratio", ratio(d("canonical.eligible"), copies),
             "ratio");

  const double pairs =
      static_cast<double>(sim.fastpath_pairs + sim.fallback_pairs);
  result.set("compare.pairs", pairs, "count");
  result.set("compare.fastpath_ratio",
             ratio(static_cast<double>(sim.fastpath_pairs), pairs), "ratio");
  const double lookups = d("digest_memo.hits") + d("digest_memo.misses");
  result.set("compare.memo_lookups", lookups, "count");
  result.set("compare.memo_hit_ratio", ratio(d("digest_memo.hits"), lookups),
             "ratio");

  result.set("incremental.canonical_rebuilds",
             ratio(d("canonical.canonicals_established"), scans), "count");

  result.set("sim.searcher_ms", sim.per_scan_ms(sim.searcher), "ms");
  result.set("sim.parser_ms", sim.per_scan_ms(sim.parser), "ms");
  result.set("sim.checker_ms", sim.per_scan_ms(sim.checker), "ms");

  for (const auto& [layer, ns] : spans.self_by_layer()) {
    const std::string name = "self_ms." + layer;
    result.set(name, ratio(static_cast<double>(ns) / 1e6, ops), "ms");
  }
}

}  // namespace perfbench
