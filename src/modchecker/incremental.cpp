#include "modchecker/incremental.hpp"

#include <algorithm>

#include "vmm/phys_mem.hpp"
#include "vmm/write_watch.hpp"

namespace mc::core {

IncrementalScanner::IncrementalScanner(const vmm::Hypervisor& hypervisor,
                                       ModCheckerConfig config)
    : context_(hypervisor, std::move(config)),
      pipeline_(context_),
      partial_refreshes_(context_.metrics->counter(
          "incremental.partial_refreshes")),
      frames_reread_(context_.metrics->counter("incremental.frames_reread")),
      cache_reuses_(context_.metrics->counter("incremental.cache_reuses")) {}

IncrementalScanner::~IncrementalScanner() {
  vmm::WriteWatch& watch = context_.hypervisor->write_watch();
  for (const auto& [key, entry] : cache_) {
    if (entry.watch != vmm::WriteWatch::kNoWatch) {
      watch.unregister(entry.watch);
    }
  }
}

PoolScanReport IncrementalScanner::scan(
    const std::string& module_name, const std::vector<vmm::DomainId>& pool) {
  PoolScanReport report;
  report.module_name = module_name;
  std::vector<CacheEntry*> entries;
  std::vector<const Extraction*> copies;
  entries.reserve(pool.size());
  copies.reserve(pool.size());
  for (const vmm::DomainId vm : pool) {
    CacheEntry& entry = fetch(vm, module_name);
    report.cpu_times += entry.ex.times;
    report.wall_time += entry.ex.times.total();
    entries.push_back(&entry);
    copies.push_back(&entry.ex);
  }
  return pipeline_.cross_check(
      pool, copies,
      [&](SimClock& clock) {
        return refresh_canonical(module_name, pool, entries, clock);
      },
      std::move(report));
}

void IncrementalScanner::drop(CacheEntry& entry) {
  if (entry.watch != vmm::WriteWatch::kNoWatch) {
    context_.hypervisor->write_watch().unregister(entry.watch);
    entry.watch = vmm::WriteWatch::kNoWatch;
  }
  entry.ex.found = false;
}

Fallible<IncrementalScanner::Refresh> IncrementalScanner::extract_full(
    AcquireStage::Session& session, const std::string& module_name,
    const ModuleInfo& info, CacheEntry& entry) {
  vmi::VmiSession& s = session.session();
  if (entry.watch != vmm::WriteWatch::kNoWatch) {
    s.unwatch(entry.watch);
    entry.watch = vmm::WriteWatch::kNoWatch;
  }
  // Register the watch BEFORE copying: a write racing the extraction marks
  // the fresh watch dirty, so the next scan conservatively refreshes —
  // registering after the copy would let that write slip by unobserved.
  Fallible<vmm::WriteWatch::WatchId> watch =
      s.try_watch_range(info.base, info.size_of_image);
  if (!watch.ok()) {
    return std::move(watch.fault());
  }
  entry.watch = watch.value();
  entry.frames = context_.hypervisor->write_watch().watched_frames(entry.watch);

  Fallible<std::optional<ModuleImage>> image =
      pipeline_.acquire().try_extract_module(session, module_name,
                                             ExtractMode::kCopy);
  if (!image.ok()) {
    return std::move(image.fault());
  }
  if (!image.value()) {
    return Refresh::kNotLoaded;  // unloaded between list walk and copy
  }
  entry.base = info.base;
  entry.image = std::move(*image.value());
  return Refresh::kChanged;
}

Fallible<bool> IncrementalScanner::patch_dirty_pages(
    AcquireStage::Session& session, CacheEntry& entry,
    const std::vector<std::uint32_t>& dirty_pages) {
  vmi::VmiSession& s = session.session();
  const std::uint32_t base = entry.base;
  const std::uint32_t page_base = base & ~(vmm::kFrameSize - 1);
  const auto image_size = static_cast<std::uint32_t>(entry.image.bytes.size());
  entry.last_changed_rvas.clear();
  for (const std::uint32_t page : dirty_pages) {
    if (page >= entry.frames.size()) {
      return false;  // registration no longer matches the cached layout
    }
    const std::uint32_t page_va = page_base + page * vmm::kFrameSize;
    // Re-translate the dirty page: a bulk invalidate (snapshot restore)
    // may have replaced the page tables, leaving the same base mapped to
    // different frames.  A moved frame means the cached frame map — and
    // the watch registered over it — is stale; fall back to a full
    // extraction + re-registration.
    Fallible<std::uint64_t> pa = s.try_translate_kv2p(page_va);
    if (!pa.ok()) {
      return std::move(pa.fault());
    }
    if (static_cast<std::uint32_t>(pa.value() >> vmm::kFrameShift) !=
        entry.frames[page]) {
      return false;
    }
    // Patch only the slice of this page that lies inside the image.
    const std::uint32_t lo = std::max(page_va, base);
    const std::uint32_t hi =
        std::min(page_va + vmm::kFrameSize, base + image_size);
    if (MaybeFault fault = s.try_read_va(
            lo, MutableByteView(entry.image.bytes.data(), image_size)
                    .subspan(lo - base, hi - lo))) {
      return std::move(*fault);
    }
    entry.last_changed_rvas.emplace_back(lo - base, hi - base);
    ++stats_.frames_reread;
    frames_reread_.inc();
  }
  return true;
}

CanonicalPool* IncrementalScanner::refresh_canonical(
    const std::string& module_name, const std::vector<vmm::DomainId>& pool,
    const std::vector<CacheEntry*>& entries, SimClock& clock) {
  if (!pipeline_.normalize().enabled()) {
    return nullptr;
  }
  const auto usable = [](const CacheEntry* e) {
    return e->ex.found && !e->ex.parse_failed;
  };
  // The pin holds while the pinned copy is in the pool, usable and
  // unchanged: the pool borrows its ParsedModule, which stays
  // address-stable in cache_ and content-stable while its generation does.
  const auto pin_holds = [&](const CanonState& state) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i] == state.ref_vm) {
        return usable(entries[i]) &&
               entries[i]->ex.generation == state.ref_generation;
      }
    }
    return false;
  };

  const auto found = canon_.find(module_name);
  if (found == canon_.end() || !pin_holds(found->second)) {
    // No pool yet, or the pinned copy changed or left: O(t) rebuild under
    // the fresh scan's reference-choice rule — the cost a fresh scan pays
    // every tick.
    std::vector<const ParsedModule*> copies;
    copies.reserve(pool.size());
    for (const CacheEntry* entry : entries) {
      if (usable(entry)) {
        copies.push_back(&entry->ex.parsed);
      }
    }
    if (copies.empty()) {
      canon_.erase(module_name);
      return nullptr;
    }
    CanonState& state = canon_[module_name];
    state.pool = std::make_unique<CanonicalPool>(build_canonical_pool(
        copies, context_.config.algorithm, context_.config.host_costs,
        context_.metrics, context_.policy(), clock));
    state.ref_vm = state.pool->reference_domain();
    state.generations.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (usable(entries[i])) {
        state.generations[pool[i]] = entries[i]->ex.generation;
      }
    }
    state.ref_generation = state.generations.at(state.ref_vm);
    return state.pool.get();
  }

  // Stable pin: only changed copies re-normalize (O(changed)), the first
  // copy included when the pin sits elsewhere.
  CanonState& state = found->second;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const CacheEntry& entry = *entries[i];
    if (pool[i] == state.ref_vm || !usable(&entry)) {
      continue;
    }
    const auto it = state.generations.find(pool[i]);
    const std::uint64_t have =
        it == state.generations.end() ? 0 : it->second;
    if (have != entry.ex.generation) {
      // The dirty-range mask is only a faithful delta when the pool saw
      // the generation immediately before a single partial refresh;
      // anything else (full re-extraction, missed generations) updates
      // every item.
      const auto* changed =
          entry.last_refresh_partial && have + 1 == entry.ex.generation
              ? &entry.last_changed_rvas
              : nullptr;
      state.pool->update(entry.ex.parsed, clock, changed);
      state.generations[pool[i]] = entry.ex.generation;
    }
  }
  return state.pool.get();
}

Fallible<IncrementalScanner::Refresh> IncrementalScanner::refresh(
    AcquireStage::Session& session, const std::string& module_name,
    CacheEntry& entry) {
  // The list walk is always needed (cheap relative to a copy): the module
  // could have been unloaded or rebased since the last scan.
  Fallible<std::optional<ModuleInfo>> found =
      pipeline_.acquire().try_find_module(session, module_name);
  if (!found.ok()) {
    return std::move(found.fault());
  }
  const std::optional<ModuleInfo>& info = found.value();
  if (!info) {
    return Refresh::kNotLoaded;  // an answer, not a fault
  }

  // O(1) watch query against the cached extraction; dirty entries retry
  // the O(changed bytes) partial refresh before falling back to a full
  // re-extraction.
  vmi::VmiSession& s = session.session();
  const bool cached = entry.ex.found && entry.base == info->base &&
                      entry.image.bytes.size() == info->size_of_image &&
                      entry.watch != vmm::WriteWatch::kNoWatch;
  if (cached && !s.watch_dirty(entry.watch)) {
    ++stats_.cache_reuses;
    cache_reuses_.inc();
    return Refresh::kClean;
  }
  if (entry.ex.found) {
    ++stats_.invalidations;  // dirty, rebased or resized
  }
  // From the first change to the cached copy until a successful attempt
  // re-parses it (parse_vm), the copy is not servable.  An attempt that
  // fails in between — with a returned fault, or a MemoryError /
  // NotFoundError the retry loop converts — may have drained the watch,
  // half patched the image, or registered a clean watch over a copy that
  // never finished; with found false, the retry or the next tick
  // re-extracts instead.
  entry.ex.found = false;
  if (cached) {
    const std::vector<std::uint32_t> dirty = s.watch_drain(entry.watch);
    Fallible<bool> patched = patch_dirty_pages(session, entry, dirty);
    if (!patched.ok()) {
      return std::move(patched.fault());
    }
    if (patched.value()) {
      ++stats_.partial_refreshes;
      partial_refreshes_.inc();
      entry.last_refresh_partial = true;
      return Refresh::kChanged;
    }
  }

  ++stats_.full_extractions;
  entry.last_refresh_partial = false;
  entry.last_changed_rvas.clear();
  return extract_full(session, module_name, *info, entry);
}

IncrementalScanner::CacheEntry& IncrementalScanner::fetch(
    vmm::DomainId vm, const std::string& module_name) {
  CacheEntry& entry = cache_[{vm, module_name}];
  Extraction& ex = entry.ex;
  ex.times = ComponentTimes{};
  ex.faults.clear();
  ex.attempts = 1;
  ex.unavailable = false;

  // Domain-generation shortcut: the per-domain write generation advances
  // on EVERY guest write — a module unload rewrites the loader list, a
  // rebase/reload rewrites list + image, an attack patches the image, a
  // snapshot restore bulk-invalidates — so an unchanged generation proves
  // the entire cached view (list walk included) is still current.  Skip
  // the session open and list walk outright; one O(1) generation query
  // replaces them.  The generation is read BEFORE any session work below
  // and stored only on success, so a write racing a fetch leaves the
  // stored value behind the live one and the next scan re-checks.
  const std::uint64_t domain_generation =
      context_.hypervisor->write_watch().domain_write_generation(vm);
  if (ex.found && entry.watch != vmm::WriteWatch::kNoWatch &&
      entry.domain_generation == domain_generation) {
    ++stats_.cache_reuses;
    cache_reuses_.inc();
    ex.times.searcher = context_.config.vmi_costs.watch_query;
    return entry;
  }

  Refresh outcome = Refresh::kNotLoaded;
  const bool answered = pipeline_.acquire_vm(
      vm, module_name, ex, [&](AcquireStage::Session& session) -> MaybeFault {
        Fallible<Refresh> refreshed = refresh(session, module_name, entry);
        if (!refreshed.ok()) {
          return std::move(refreshed.fault());
        }
        outcome = refreshed.value();
        return std::nullopt;
      });
  if (!answered || outcome == Refresh::kNotLoaded) {
    drop(entry);  // quarantined, or answered "not loaded"
    return entry;
  }
  entry.domain_generation = domain_generation;
  if (outcome == Refresh::kChanged) {
    ++ex.generation;
    pipeline_.parse_vm(vm, module_name, entry.image, ex);
  }
  return entry;
}

}  // namespace mc::core
