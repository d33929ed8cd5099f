"""Run one ``fracspectra`` CLI command in this process, optionally traced.

    python3 benchmarks/traced_cli.py MODE RECORD.json PARENT TARGETS -- CLI ARGS...

``MODE`` is ``plain`` (no wrappers, only the ``cli.main`` span), ``time``
(a span around every call into a target) or ``mem`` (the same spans, each
also carrying the peak ``tracemalloc`` growth during the call).  The spans
stay in memory and are written to ``RECORD.json`` when the command ends;
the outermost one, ``cli.main``, names ``PARENT`` as its parent span.
``TARGETS`` is a comma-separated list of what to wrap: ``module.function``
for a public function or class of a ``fracspectra`` module, and
``linalg.name`` for a numpy/scipy ``linalg`` routine, whose spans are named
``linalg.name.<caller>`` after the innermost traced function that called
it.  Standard output is the CLI's own, so the caller checks it as it checks
an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc


class Tracer:
    """Records nested spans; with ``mem`` also each span's peak heap growth."""

    def __init__(self, parent_id: str, mem: bool):
        self.parent_id = parent_id
        self.mem = mem
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._next = 0

    def _enter(self, name: str, input_bytes: int | None) -> dict:
        self._next += 1
        span = {
            "id": f"{os.getpid()}.{self._next}",
            "parent": self._open[-1]["id"] if self._open else self.parent_id,
            "name": name,
        }
        if input_bytes is not None:
            span["input_bytes"] = input_bytes
        if self.mem:
            current, peak = tracemalloc.get_traced_memory()
            self._fold_peak(peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_peak"] = current
        self._open.append(span)
        span["start_ns"] = time.perf_counter_ns()
        return span

    def _exit(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        if self.mem:
            self._fold_peak(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            span["peak_bytes"] = span.pop("_peak") - span.pop("_base")
        self._open.pop()
        self.spans.append(span)

    def _fold_peak(self, peak: int) -> None:
        # the peak since the last reset belongs to every span still open
        for span in self._open:
            span["_peak"] = max(span["_peak"], peak)

    def caller(self) -> str:
        for span in reversed(self._open):
            if not span["name"].startswith("linalg."):
                return span["name"].rsplit(".", 1)[-1]
        return "none"

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return traced

    def wrap_linalg(self, routine: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nbytes = sum(getattr(a, "nbytes", 0) for a in (*args, *kwargs.values()))
            span = self._enter(f"linalg.{routine}.{self.caller()}", nbytes)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return traced


def _replace_everywhere(original, replacement, modules) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, targets: list[str]) -> None:
    """Wrap each target in its own module and wherever it was imported by name."""
    import numpy.linalg
    import scipy.linalg

    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "fracspectra" or name.startswith("fracspectra.")
    ]
    for target in targets:
        layer, name = target.split(".")
        if layer == "linalg":
            for lib in (numpy.linalg, scipy.linalg):
                original = getattr(lib, name, None)
                if original is not None:
                    wrapped = tracer.wrap_linalg(name, original)
                    _replace_everywhere(original, wrapped, [lib, *modules])
            continue
        original = getattr(importlib.import_module(f"fracspectra.{layer}"), name)
        if isinstance(original, type):
            # a class is timed through its constructor, so isinstance still works
            original.__init__ = tracer.wrap(target, original.__init__)
        else:
            _replace_everywhere(original, tracer.wrap(target, original), modules)


def main(argv: list[str]) -> int:
    mode, record_path, parent_id, targets, sep, *cli_args = argv
    if mode not in ("plain", "time", "mem") or sep != "--":
        raise SystemExit(f"usage: {sys.argv[0]} plain|time|mem RECORD PARENT TARGETS -- ARGS")
    import fracspectra.cli

    tracer = Tracer(parent_id, mem=(mode == "mem"))
    if mode != "plain":
        install(tracer, targets.split(","))
    if tracer.mem:
        tracemalloc.start()
    root = tracer._enter("cli.main", None)
    try:
        code = fracspectra.cli.main(cli_args)
    finally:
        tracer._exit(root)
        if tracer.mem:
            tracemalloc.stop()
        sys.stdout.flush()
        with open(record_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
