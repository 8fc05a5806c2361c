"""The benchmark's traced run patches names of the package; each of them must exist.

bench/tracing.py wraps module-level names of se2track from outside (spans
and counters) and puts them back after each pass. A refactor that drops
or renames one of them would only fail in a traced benchmark run, so its
install functions run here on the package itself, without a workload.
"""

import importlib
import sys
from pathlib import Path

import se2track
import se2track.cli  # noqa: F401 -- makes every module an attribute of the package

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_traced_run_patches_names_that_exist_and_puts_them_back(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    fresh = [name for name in ("tracing", "common", "workloads") if name not in sys.modules]
    try:
        tracing = importlib.import_module("tracing")
        tr = tracing.Tracer()
        try:
            tracing.install_spans(tr, se2track)
            tracing.install_counters(tr, se2track)
            patched = [(owner, attr, getattr(owner, attr), original)
                       for owner, attr, original in tr._patches]
        finally:
            tr.unpatch()
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    assert len(patched) > 10
    for owner, attr, wrapper, original in patched:
        assert wrapper is not original, attr
        assert getattr(owner, attr) is original, attr
