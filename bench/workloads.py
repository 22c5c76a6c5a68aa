"""The benchmark's three workloads, their correctness checks and their layers.

Each workload has a set-up (timed as setup_s), a one-off preparation of the
expected outputs (untimed), an iteration made of timed phases followed by
untimed checks, and a final check.  An operation is a profile cell, an
analyzed site, a recommended site or a patch; each one whose output
disagrees with the benchmark's own expectation, or that raises, is failed.

Why these workloads:

* profile-small: build_profile over the whole built-in pool.  The harness,
  meter, groups and structures do all the work; analyzer, recommend and
  patcher none.  A harness or workload-generation change shows here only.
* corpus-large-files: four minilang files of doubling size.  The scanner,
  super-linear in file size, dominates both the analysis and the patcher's
  re-scan; the recommender is a few percent.  It is the workload for a
  scanner fix and predicts little change from a recommender fix.
* corpus-many-files: about a thousand small clike files and three
  profiles.  The scanner runs in its linear regime, while per-site
  dominance pruning across three profiles makes recommending a large
  share; the JSON loaders and the patcher's per-file atomic writes are
  exercised here and barely elsewhere.
"""

from __future__ import annotations

import difflib
import importlib
import json
import math
import os
import statistics
import sys
import time
import traceback
import typing
from pathlib import Path

from corpus import generate_file
from profiles import base_cells, joules, perturbed, profile_doc
from reference import Reference
from spans import Tracer, quantile
from vocab import CELLS, POWER_WATTS, UNSUPPORTED

LOOP_WEIGHT = 2.0  # makes each counted call's loop depth visible in the counts
THRESHOLD_FACTOR = 100.0  # RunPlan's default time threshold
OP_REPETITIONS = 250


def fresh_import():
    """Import voltpick from scratch, so that set-up pays for the imports.

    typing's caches hold the parameterised types of the previous copy (such
    as a Callable over one of its classes); they are cleared so that the
    copy can be freed and later set-ups do not grow the heap that the
    harness's gc.collect() calls walk.
    """
    for clear in typing._cleanups:
        clear()
    for name in [n for n in sys.modules if n == "voltpick" or n.startswith("voltpick.")]:
        del sys.modules[name]
    return importlib.import_module("voltpick")


def _call(tracer, name, func, *args):
    return tracer.call(name, func, *args) if tracer else func(*args)


class _Workload:
    """Shared bookkeeping: operation counts and the module-level wrappers."""

    doubling = False

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def prepare(self) -> None:
        """Work out the expected outputs once, after set-up; untimed."""

    def finish(self) -> None:
        """Checks that need the last iteration's output; untimed."""

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)

    def trace_modules(self, tracer: Tracer) -> dict:
        """Wrap the analyzer, recommender, patcher and loaders; return the tallies."""
        vp = self.vp
        seen = {"kb": [], "sites": 0, "calls": 0, "bytes_read": 0}

        def scanned(sites, args):
            seen["kb"].append(len(args[0].encode("utf-8")) / 1024)
            seen["sites"] += len(sites)
            seen["calls"] += sum(sum(s.raw_counts.values()) for s in sites)

        def read(_doc, args):
            seen["bytes_read"] += os.path.getsize(args[0])

        tracer.wrap(vp.analyzer, "scan_file", "analyzer.scan_file", observe=scanned)
        tracer.wrap(vp.analyzer, "mask_text", "analyzer.mask_text")
        tracer.wrap(vp.patcher, "scan_file", "patcher.scan_file")
        tracer.wrap(vp.recommend, "recommend_site", "recommend.recommend_site")
        tracer.wrap(vp.recommend, "prune_dominated", "recommend.prune_dominated")
        tracer.wrap(vp.profile, "dominates", "profile.dominates", span=False)
        tracer.wrap(vp.jsonio, "read", "jsonio.read", span=False, observe=read)
        return seen

    def module_layers(self, tracer: Tracer, seen: dict) -> dict:
        scans = tracer.durations("analyzer.scan_file")
        scan_s = sum(scans)
        mask_s = sum(tracer.durations("analyzer.mask_text", parent="analyzer.scan_file"))
        kb = sum(seen["kb"])
        doubling = 0.0
        if self.doubling and len(scans) > 1:
            by_size = [t for _, t in sorted(zip(seen["kb"], scans))]
            doubling = (by_size[-1] / by_size[0]) ** (1 / (len(by_size) - 1))
        sites_us = [d * 1e6 for d in tracer.durations("recommend.recommend_site")]
        return {
            "analyzer.files": len(scans),
            "analyzer.kb": kb,
            "analyzer.sites": seen["sites"],
            "analyzer.calls_counted": seen["calls"],
            "analyzer.scan_s": scan_s,
            "analyzer.mask_s": mask_s,
            "analyzer.scan_rest_s": scan_s - mask_s,
            "analyzer.kb_per_s": kb / scan_s if scan_s else 0.0,
            "analyzer.scan_file_s.p50": quantile(scans, 0.5),
            "analyzer.scan_file_s.p90": quantile(scans, 0.9),
            "analyzer.scan_doubling_ratio": doubling,
            "recommend.sites": len(sites_us),
            "recommend.site_us.p50": quantile(sites_us, 0.5),
            "recommend.site_us.p90": quantile(sites_us, 0.9),
            "recommend.prune_calls": tracer.counts["recommend.prune_dominated"],
            "recommend.prune_s": sum(tracer.durations("recommend.prune_dominated")),
            "recommend.dominates_calls": tracer.counts["profile.dominates"],
            "patcher.rescan_s": sum(tracer.durations("patcher.scan_file")),
            "jsonio.bytes_read": seen["bytes_read"],
        }


# --- profile-small ---------------------------------------------------------------

class ProfileSmall(_Workload):
    name = "profile-small"

    def setup(self, seed: int) -> None:
        vp = self.vp = fresh_import()
        self.groups = vp.builtin_groups()
        self.meter = vp.open_meter(vp.MeterConfig("time-power",
                                                  assumed_power_watts=POWER_WATTS))
        # the small preset with fewer repetitions keeps one build near 6 s on a
        # 2-vCPU host, so that a run holds several builds
        self.scenario = vp.scenario_preset("small", op_repetitions=OP_REPETITIONS)
        self.plan = vp.RunPlan(rng_seed=seed)

    def iterate(self, tracer: Tracer | None) -> tuple[dict, dict]:
        vp = self.vp
        progress = None
        if tracer:
            seen = self.trace_modules(tracer)
            readings, current, cells, events = [], [], [], []

            def span_end(reading, _args):
                readings.append(reading.elapsed_seconds)
                current.append(reading.elapsed_seconds)

            def progress(event):
                # one "series" event closes each cell, measured or unsupported
                if event["event"] == "series":
                    measured = event["status"] == "measured"
                    events.append((time.perf_counter(), measured))
                    if measured:
                        cells.append(list(current))
                    current.clear()

            tracer.wrap(self.meter, "span_end", "meter.span_end", span=False, observe=span_end)
            for group in self.groups:
                for adapter in group.implementations:
                    tracer.wrap(adapter, "factory", "groups.factory")
            tracer.wrap(vp.groups.Workload, "generate", "groups.Workload.generate")

        start = time.perf_counter()
        try:
            profile = _call(tracer, "profile", vp.build_profile, self.groups,
                            self.scenario, self.meter, self.plan, progress)
        except Exception:
            traceback.print_exc()
            profile = None
        profile_s = time.perf_counter() - start
        if tracer:
            tracer.unwrap_all()
        phases = {"profile_s": profile_s, "total_s": profile_s}
        if profile is None:
            self.tally(len(CELLS), len(CELLS))
            return phases, {}
        self.check(profile)
        if not tracer:
            return phases, {}

        layers = self.module_layers(tracer, seen)
        statuses = [e.status for e in profile.entries.values()]
        cell_s, previous = [], start
        for at, measured in events:
            if measured:
                cell_s.append(at - previous)
            previous = at
        cell_cv = [statistics.stdev(kept) / statistics.fmean(kept)
                   for kept in (runs[self.plan.warmup_discard:] for runs in cells)
                   if len(kept) > 1]
        span_s = sum(readings)
        factory_s = sum(tracer.durations("groups.factory"))
        gen_s = sum(tracer.durations("groups.Workload.generate"))
        layers.update({
            "harness.cells_measured": statuses.count("measured"),
            "harness.cells_discarded": statuses.count("discarded-threshold"),
            "harness.cells_unsupported": statuses.count("unsupported"),
            "harness.cell_s.p50": quantile(cell_s, 0.5),
            "harness.cell_s.p90": quantile(cell_s, 0.9),
            "harness.overhead_s": profile_s - span_s - factory_s - gen_s,
            "harness.cell_cv.p50": quantile(cell_cv, 0.5),
            "meter.spans": len(readings),
            "meter.span_s": span_s,
            "groups.factory_calls": tracer.counts["groups.factory"],
            "groups.factory_s": factory_s,
            "groups.workload_gen_calls": tracer.counts["groups.Workload.generate"],
            "groups.workload_gen_s": gen_s,
        })
        return phases, layers

    def check(self, profile) -> None:
        """Every cell present with the right status; joules = 5 W x seconds;
        no kept cell slower than the threshold factor times its op's fastest."""
        entries = profile.entries
        fastest = {}
        for (impl, op), e in entries.items():
            if e.status == "measured" and e.mean_seconds and e.mean_seconds > 0:
                fastest[op] = min(fastest.get(op, math.inf), e.mean_seconds)
        failed = len(set(entries) - set(CELLS))
        for cell in CELLS:
            e = entries.get(cell)
            if e is None:
                failed += 1
            elif cell in UNSUPPORTED:
                failed += e.status != "unsupported"
            elif e.status == "measured":
                ok = (math.isfinite(e.mean_joules) and e.mean_seconds > 0
                      and math.isclose(e.mean_joules, POWER_WATTS * e.mean_seconds,
                                       rel_tol=1e-9)
                      and e.mean_seconds <= THRESHOLD_FACTOR * fastest[cell[1]] * (1 + 1e-12))
                failed += not ok
            else:
                failed += e.status != "discarded-threshold"
        self.tally(len(set(entries) | set(CELLS)), failed)


# --- corpus workloads -------------------------------------------------------------

class _Corpus(_Workload):
    """analyze -> recommend -> plan and apply in place, on a generated corpus."""

    lang: str
    suffix: str
    site_counts: list[int]  # construction sites per generated file
    n_profiles: int
    reload_report: bool

    def setup(self, seed: int) -> None:
        vp = self.vp = fresh_import()
        self.lang_profile = vp.language_profile(self.lang)
        self.files = []
        os.makedirs("src", exist_ok=True)
        for i, n_sites in enumerate(self.site_counts):
            source = generate_file(self.lang, f"src/f{i:04d}.{self.suffix}", n_sites,
                                   seed * 100_003 + i, LOOP_WEIGHT)
            Path(source.path).write_text(source.text, encoding="utf-8")
            self.files.append(source)
        base = base_cells(seed)
        self.cells = [base] + [perturbed(base, seed * 10 + k) for k in range(1, self.n_profiles)]
        self.profile_paths = []
        for k, cells in enumerate(self.cells):
            path = f"profile-{k}.json"
            Path(path).write_text(json.dumps(profile_doc(cells), indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
            self.profile_paths.append(path)
        self.paths = [f.path for f in self.files]

    def prepare(self) -> None:
        """Expected recommendations, patches, patched bytes and dry-run diff."""
        self.sites = {s.site_id: s for f in self.files for s in f.sites}
        self.pristine = {f.path: f.text.encode("utf-8") for f in self.files}
        refs = [Reference(joules(cells)) for cells in self.cells]
        self.choices = [{sid: ref.choose(s.kind, s.impl, s.weighted_counts)
                         for sid, s in self.sites.items()} for ref in refs]
        self.flips = ({sid for sid in self.sites
                       if len({c[sid] for c in self.choices}) > 1}
                      if self.n_profiles > 1 else set())
        self.patches = {}  # file -> set of (file, start, end, original, replacement)
        self.patched = {}
        diffs = []
        for f in self.files:
            out, cursor, wanted = bytearray(), 0, set()
            for s in f.sites:
                choice = self.choices[0][s.site_id]
                if choice is None or choice == s.impl:
                    continue
                start, end = s.ctor_span
                wanted.add((f.path, start, end, s.impl, choice))
                out += self.pristine[f.path][cursor:start] + choice.encode("utf-8")
                cursor = end
            out += self.pristine[f.path][cursor:]
            self.patches[f.path] = wanted
            self.patched[f.path] = bytes(out)
            if wanted:
                diffs.append("".join(difflib.unified_diff(
                    f.text.splitlines(keepends=True),
                    out.decode("utf-8").splitlines(keepends=True),
                    fromfile=f"a/{f.path}", tofile=f"b/{f.path}")))
        self.diff = "".join(diffs)
        self.dry_run_checked = False

    def iterate(self, tracer: Tracer | None) -> tuple[dict, dict]:
        vp = self.vp
        for path, data in self.pristine.items():
            Path(path).write_bytes(data)
        seen = self.trace_modules(tracer) if tracer else None
        span = tracer.begin if tracer else (lambda name: None)
        end = tracer.end if tracer else (lambda index: None)
        t0 = time.perf_counter()
        try:
            top = span("analyze")
            report = vp.analyze_corpus(self.paths, self.lang_profile, LOOP_WEIGHT)
            _call(tracer, "jsonio.save_report", vp.save_usage_report, report, "usage.json")
            end(top)
            t1 = time.perf_counter()
            top = span("recommend")
            used = (_call(tracer, "jsonio.load_report", vp.load_usage_report, "usage.json")
                    if self.reload_report else report)
            profiles = [_call(tracer, "jsonio.load_profile", vp.load_profile, p)
                        for p in self.profile_paths]
            if len(profiles) > 1:
                comparison = vp.compare_profiles(used, profiles)
                sets, flipped = comparison.sets, set(comparison.differing_sites)
            else:
                sets, flipped = [vp.recommend_program(used, profiles[0])], set()
            _call(tracer, "jsonio.save_recs", vp.jsonio.write, "recs.json",
                  vp.recommend.recommendation_set_to_dict(sets[0]))
            end(top)
            t2 = time.perf_counter()
            top = span("apply")
            patches = _call(tracer, "patcher.plan", vp.plan_patches, sets[0], self.paths,
                            self.lang_profile)
            end(top)
            t3 = time.perf_counter()
            if not self.dry_run_checked:
                diff = vp.apply_patches(patches, vp.patcher.MODE_DRY_RUN)
                self.dry_run_checked = True
            else:
                diff = None
            t4 = time.perf_counter()
            top = span("apply")
            written = _call(tracer, "patcher.write", vp.apply_patches, patches,
                            vp.patcher.MODE_IN_PLACE)
            end(top)
            t5 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            n = len(self.sites) * (1 + self.n_profiles)
            self.tally(n, n)
            return {"total_s": time.perf_counter() - t0}, {}
        finally:
            if tracer:
                tracer.unwrap_all()
        phases = {"analyze_s": t1 - t0, "recommend_s": t2 - t1,
                  "apply_s": (t3 - t2) + (t5 - t4)}
        phases["total_s"] = sum(phases.values())

        self.check_sites(report.sites, used.sites if self.reload_report else None)
        self.check_recommendations(sets, flipped)
        self.check_patches(patches, diff)
        if not tracer:
            return phases, {}

        layers = self.module_layers(tracer, seen)
        layers.update({
            "recommend.changes": sum(r.is_change for r in sets[0].recommendations),
            "recommend.no_candidates": sum(len(used.sites) - len(s.recommendations)
                                           for s in sets),
            "recommend.flipped_sites": len(flipped),
            "patcher.patches": len(patches),
            "patcher.files_written": len(written),
            "patcher.bytes_written": sum(os.path.getsize(p) for p in written),
            "patcher.plan_s": sum(tracer.durations("patcher.plan")),
            "patcher.write_s": sum(tracer.durations("patcher.write")),
            "jsonio.save_report_s": sum(tracer.durations("jsonio.save_report")),
            "jsonio.load_report_s": sum(tracer.durations("jsonio.load_report")),
            "jsonio.load_profile_s": sum(tracer.durations("jsonio.load_profile")),
        })
        return phases, layers

    # -- checks -----------------------------------------------------------------

    def check_sites(self, sites, loaded) -> None:
        """The in-memory report (and the reloaded one) against the ground truth."""
        got = {s.site_id: s for s in sites}
        back = {s.site_id: s for s in loaded} if loaded is not None else None
        failed = 0
        for sid, want in self.sites.items():
            s = got.get(sid)
            ok = (s is not None and s.current_impl == want.impl and s.api_kind == want.kind
                  and (s.line, s.column) == (want.line, want.column)
                  and s.ctor_span == want.ctor_span
                  and s.raw_counts == want.raw_counts
                  and s.op_counts == want.weighted_counts
                  and s.max_loop_depth == want.max_loop_depth)
            if back is not None:
                r = back.get(sid)
                ok = ok and r is not None and r.current_impl == want.impl and (
                    r.raw_counts == want.raw_counts and r.op_counts == want.weighted_counts)
            failed += not ok
        extra = len(set(got) - set(self.sites))
        self.tally(len(self.sites) + extra, failed + extra)

    def check_recommendations(self, sets, flipped: set) -> None:
        failed = attempted = 0
        for choices, rec_set in zip(self.choices, sets):
            recs = {r.site_id: r for r in rec_set.recommendations}
            for sid, want in choices.items():
                r = recs.pop(sid, None)
                got = r.recommended_impl if r is not None else None
                failed += got != want
            attempted += len(choices) + len(recs)
            failed += len(recs)
        failed += len(flipped ^ self.flips)
        self.tally(attempted, failed)

    def check_patches(self, patches, diff: str | None) -> None:
        """The plan, the dry-run diff and the written bytes all make the expected edit."""
        got = {(p.file, p.byte_start, p.byte_end, p.original_text, p.replacement_text)
               for p in patches}
        wanted = set().union(*self.patches.values())
        bad = got ^ wanted
        if diff is not None and diff != self.diff:
            bad |= got | wanted
        for path, data in self.patched.items():
            if Path(path).read_bytes() != data:
                bad |= self.patches[path] or {("unchanged file", path)}
        self.tally(len(got | wanted | bad), len(bad))

    def finish(self) -> None:
        """Fixpoint: the patched corpus, re-analyzed and re-recommended, keeps every site."""
        vp = self.vp
        try:
            report = vp.analyze_corpus(self.paths, self.lang_profile, LOOP_WEIGHT)
            recs = vp.recommend_program(report, vp.load_profile(self.profile_paths[0]))
        except Exception:
            traceback.print_exc()
            self.tally(len(self.sites), len(self.sites))
            return
        now = {r.site_id: r for r in recs.recommendations}
        failed = 0
        for sid, site in self.sites.items():
            choice, r = self.choices[0][sid], now.get(sid)
            if choice is None:
                failed += r is not None
            else:
                failed += r is None or r.is_change or r.current_impl != choice
        self.tally(len(self.sites), failed)


class CorpusLargeFiles(_Corpus):
    name = "corpus-large-files"
    lang, suffix = "minilang", "mini"
    site_counts = [200, 400, 800, 1600]
    n_profiles, reload_report = 1, False
    doubling = True


class CorpusManyFiles(_Corpus):
    name = "corpus-many-files"
    lang, suffix = "clike", "c"
    site_counts = [12] * 400
    n_profiles, reload_report = 3, True


WORKLOADS = {w.name: w for w in (ProfileSmall, CorpusLargeFiles, CorpusManyFiles)}
