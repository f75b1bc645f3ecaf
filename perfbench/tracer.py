"""Span tracer that wraps ckmsched's public functions from outside the program.

`install` replaces each target function everywhere the ckmsched modules
hold a reference to it (a module's own global, every `from .x import y`
binding and the package re-exports), so calls made inside the program are
seen as well as calls made by the benchmark. Spans stay in memory as
`[name, start, end, parent, trial]` lists and are written out at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# TARGETS rows are (module, attribute, kind, count hook). A dotted attribute
# names a method. SPAN records a span per call; COUNT_ONLY only counts calls,
# for functions called too often to keep a span each. A hook receives
# (counts, args, result) after a call returns.
SPAN = "span"
COUNT_ONLY = "count"


def _rows(counts, args, result):
    counts["geometry.channel_rows.rows"] += int(result.shape[0])


def _map_bytes(counts, args, result):
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
    corr = getattr(result, "corr", None)
    counts["ckm.map_bytes"] = max(counts["ckm.map_bytes"], sum(a.nbytes for a in arrays))
    counts["ckm.corr_bytes"] = max(
        counts["ckm.corr_bytes"], 0 if corr is None else int(corr.nbytes)
    )


def _acquired(counts, args, result):
    counts["scheduling.fuse_effective_csi.acquired_users"] += len(result.acquired)


def _fallback(counts, args, result):
    counts["scheduling.aes_select.fallback_users"] += len(result.fallback)


def _csv_bytes(counts, args, result):
    counts["cli.csv_bytes"] += os.path.getsize(args[1])


TARGETS = (
    ("geometry", "build_scenario", SPAN, None),
    ("geometry", "channel_rows", SPAN, _rows),
    ("geometry", "sample_grid", SPAN, None),
    ("geometry", "Scenario.locate", COUNT_ONLY, None),
    ("ckm", "build_ckm", SPAN, _map_bytes),
    ("ckm", "UsCkm.save", SPAN, None),
    ("ckm", "UsCkm.load", SPAN, None),
    ("experiments", "run_trial", SPAN, None),
    ("experiments", "place_users", SPAN, None),
    ("experiments", "trial_channels", SPAN, None),
    ("scheduling", "greedy_schedule", SPAN, None),
    ("scheduling", "robust_two_stage", SPAN, None),
    ("scheduling", "fuse_effective_csi", SPAN, _acquired),
    ("scheduling", "aes_select", SPAN, _fallback),
    ("scheduling", "gis_select", SPAN, None),
    ("scheduling", "iccs_schedule", SPAN, None),
    ("scheduling", "sus_schedule", SPAN, None),
    ("scheduling", "random_schedule", SPAN, None),
    ("evaluation", "evaluate_group", SPAN, None),
    ("evaluation", "brute_force_optimum", SPAN, None),
    ("evaluation", "calibrate_noise", SPAN, None),
    ("cli", "parse_config", SPAN, None),
    ("cli", "cmd_run", SPAN, _csv_bytes),
    ("cli", "cmd_build_ckm", SPAN, None),
    ("cli", "cmd_inspect_ckm", SPAN, None),
)


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._trial: int | None = None
        self._next_trial = 0

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        opens_trial = name == "experiments.run_trial"

        def traced(*args, **kwargs):
            if opens_trial:
                self._trial, self._next_trial = self._next_trial, self._next_trial + 1
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trial]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if opens_trial:
                    self._trial = None
            counts[name + ".calls"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target in the already imported ckmsched package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ckmsched" or n.startswith("ckmsched.")]
        for mod_name, attr, kind, hook in TARGETS:
            module = sys.modules[f"ckmsched.{mod_name}"]
            name = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = (self._count(name, fn) if kind == COUNT_ONLY
                           else self._wrap(name, fn, hook))
                setattr(cls, meth, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        """Per-name calls, busy_s (inclusive) and self_s, plus hook counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[i]
            durations[name].append(end - start)
        out: dict[str, float] = dict(self.counts)
        for name in busy:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.us_p50"] = statistics.median(durations[name]) * 1e6
        return out

    def write(self, path):
        """One JSON line per span: name, start, end, parent index, trial id."""
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")
