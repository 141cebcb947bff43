"""Plumbing shared by the benchmark: where the checkout's sources live, the
`fuzzytl` command as a subprocess, timing statistics, and the span recorder.

Nothing here imports fuzzytl; `use_checkout_sources` must run first.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Generated inputs and span files; listed in the root .gitignore.
WORK = ROOT / ".perfbench"

INTERPS = ("zadeh", "godel", "lukasiewicz", "product")

#: What the installed `fuzzytl` entry point runs.
_CLI_PRELUDE = "import sys; from fuzzytl.cli import main; sys.exit(main())"

#: Absolute tolerance for comparing degrees with a reference that folds in a
#: different order (sorted instead of positional) or through another formula.
TOL = 1e-9

perf = time.perf_counter


def use_checkout_sources() -> None:
    """Import fuzzytl from this checkout's src/ and nowhere else."""
    package = SRC / "fuzzytl"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fuzzytl sources at {package}")
    sys.path.insert(0, str(SRC))
    import fuzzytl

    if Path(fuzzytl.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: fuzzytl imported from {fuzzytl.__file__}, not {package}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(code: str, *args: str) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time from spawn to exit of `python -c code args`, and its result."""
    cmd = [sys.executable, "-c", code, *args]
    t0 = perf()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
    )
    return perf() - t0, proc


def run_cli(*args: str) -> tuple[float, subprocess.CompletedProcess]:
    """One `fuzzytl ...` command, timed from process start to exit."""
    return run_python(_CLI_PRELUDE, *args)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Leaf:
    column: int


@dataclass(frozen=True)
class _Window:
    op: str
    width: int
    arg: object


_CAL_TREE = _Window("max", 6, _Window("min", 5, _Window("prod", 4, _Leaf(1))))
_CAL_COLUMNS = [[((i * 7919 + k * 104729) % 1000) / 1000.0 for i in range(64)] for k in range(3)]


def _cal_eval(f, pos, memo):
    key = (f, pos)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if type(f) is _Leaf:
        value = _CAL_COLUMNS[f.column][pos % 64]
    else:
        value = _cal_eval(f.arg, pos, memo)
        for d in range(1, f.width + 1):
            w = _cal_eval(f.arg, pos + d, memo)
            if f.op == "max":
                value = value if value >= w else w
            elif f.op == "min":
                value = value if value <= w else w
            else:
                value = value * w
    memo[key] = value
    return value


#: The calibration slice's time on the 2-core host the benchmark was built on.
CAL_REFERENCE_S = 0.010


def calibrate() -> float:
    """Seconds taken by a fixed slice (about 10 ms) of pure-Python work
    shaped like the evaluator's: recursion, frozen-dataclass memo keys and
    float folds.

    The host's speed swings by a quarter within seconds; sweep times divided
    by calibration slices run in between them cancel most of that.  The
    slice never calls fuzzytl, so no change to fuzzytl can move it.
    """
    t0 = perf()
    for pos in range(100):
        _cal_eval(_CAL_TREE, pos, {})
    return perf() - t0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile_stats(stem: str, samples: list[float]) -> dict[str, float]:
    """The median plus the highest percentile with ten samples beyond it."""
    out = {f"{stem}_p50_s": statistics.median(samples)}
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            out[f"{stem}_p{q}_s"] = cuts[q - 1]
            break
    return out


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    def span(self, name: str, module: str):
        return _NULL_SPAN

    def next_job(self) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "module", "parent", "sid", "start")

    def __init__(self, tracer, name, module):
        self.tracer = tracer
        self.name = name
        self.module = module

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else None
        self.sid = tr.started
        tr.started += 1
        tr.stack.append(self.sid)
        self.start = perf()
        return self

    def __exit__(self, *exc):
        end = perf()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append((tr.job, self.sid, self.parent, self.name, self.module, self.start, end))
        return False


class Tracer:
    """Spans around each call from the benchmark into a fuzzytl layer.

    A span is (job id, span id, parent span id, name, module, start, end);
    spans stay in memory until `write`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.started = 0
        self.job = 0

    def span(self, name: str, module: str) -> _Span:
        return _Span(self, name, module)

    def next_job(self) -> None:
        self.job += 1

    def self_seconds(self) -> dict[str, float]:
        """Per module: span time minus the time its child spans cover."""
        child_time: dict[int, float] = {}
        for _, _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for _, sid, _, _, module, start, end in self.spans:
            out[module] = out.get(module, 0.0) + (end - start) - child_time.get(sid, 0.0)
        return out

    def write(self, path: Path) -> None:
        doc = {"fields": ["job", "id", "parent", "name", "module", "start", "end"], "spans": self.spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
