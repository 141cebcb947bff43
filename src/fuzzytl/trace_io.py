"""Trace files (JSON and CSV) and the command line's avoiding-table forms."""

from __future__ import annotations

import functools
import gc
import json
import re
from itertools import repeat
from pathlib import Path
from typing import Optional

from .core import _CHUNK, AvoidingFunction, Trace
from .errors import ValidationError
from .parser import _is_atom_name, below_ceiling


def _check_atom_names(atoms) -> tuple[str, ...]:
    names = tuple(atoms)
    for name in names:
        if not isinstance(name, str) or not _is_atom_name(name):
            raise ValidationError(f"{name!r} is not a usable atom name")
    return names


def _csv_rows(lines, width: int):
    """The rows of CSV ``lines``, a chunk at a time.  A chunk whose every
    line holds ``width - 1`` commas is one ``float`` map over its joined
    cells, cut into rows by ``zip``; otherwise, or if a cell is not a
    number, the chunk goes line by line, which names the first bad row."""
    for i in range(0, len(lines), _CHUNK):
        chunk = lines[i:i + _CHUNK]
        if set(map(str.count, chunk, repeat(","))) == {width - 1}:
            try:
                # float() ignores the whitespace around a cell
                cells = iter(list(map(float, ",".join(chunk).split(","))))
            except ValueError:
                pass
            else:
                yield from zip(*[cells] * width)
                continue
        for ln in chunk:
            try:
                yield tuple(map(float, ln.split(",")))
            except ValueError as exc:
                raise ValidationError(f"bad CSV value in row {ln!r}") from exc


def _collector_paused(load):
    """Run ``load`` with the cyclic garbage collector off.

    A parsed document and the ``Trace`` built from it hold no reference
    cycles, so a collection during loading finds nothing to free.  Yet each
    row allocates containers, and on a 100,000-state trace the collector
    would run about 300 times, twice over the whole heap.  The rows are
    then all in the young generation, and the first collection after the
    load would visit every one of them, still to free nothing: so the
    young objects move to the oldest generation unvisited, unless the
    caller froze objects of its own, which ``gc.unfreeze`` would release.
    """

    @functools.wraps(load)
    def paused(text: str) -> Trace:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(text)
        finally:
            if enabled:
                if not gc.get_freeze_count():
                    gc.freeze()  # every tracked object, out of every generation
                    gc.unfreeze()  # back, into the oldest
                gc.enable()

    return paused


@_collector_paused
def trace_from_json(text: str) -> Trace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON trace: {exc}") from exc
    if not isinstance(doc, dict) or "atoms" not in doc or "states" not in doc:
        raise ValidationError("JSON trace needs 'atoms' and 'states' keys")
    atoms = doc["atoms"]
    if not isinstance(atoms, list):
        raise ValidationError(f"'atoms' must be a list of names, not {type(atoms).__name__}")
    atoms = _check_atom_names(atoms)
    states = doc["states"]
    if not isinstance(states, list) or not {list}.issuperset(map(type, states)):
        raise ValidationError("'states' must be a list of rows")
    loop = doc.get("loop")
    if loop is not None and (not isinstance(loop, int) or isinstance(loop, bool)):
        raise ValidationError(f"'loop' must be an integer index, got {loop!r}")
    trace = Trace.__new__(Trace)
    trace._build(atoms, states, loop, (str, bool))  # float() would read them as numbers
    return trace


@_collector_paused
def trace_from_csv(text: str) -> Trace:
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise ValidationError("empty CSV trace")
    loop: Optional[int] = None
    if lines[0].startswith("#"):
        directive = lines.pop(0).lstrip("#").strip()
        m = re.match(r"loop\s*=\s*(\d+)\Z", directive)
        if not m:
            raise ValidationError(f"bad directive line {directive!r}; expected 'loop=K'")
        loop = int(m.group(1))
        if not lines:
            raise ValidationError("CSV trace has a directive but no header")
    atoms = _check_atom_names(cell.strip() for cell in lines[0].split(","))
    return Trace(atoms, list(_csv_rows(lines[1:], len(atoms))), loop)


def load_trace(path: str | Path) -> Trace:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise ValidationError(f"trace file {str(path)!r} is not UTF-8 text: {exc}") from exc
    head = text.lstrip()[:1]
    if head == "{":
        return trace_from_json(text)
    return trace_from_csv(text)


def trace_to_json(trace: Trace) -> str:
    doc: dict = {"atoms": list(trace.atoms), "states": [list(row) for row in trace.states]}
    if trace.loop_start is not None:
        doc["loop"] = trace.loop_start
    return json.dumps(doc)


def trace_to_csv(trace: Trace) -> str:
    lines = []
    if trace.loop_start is not None:
        lines.append(f"# loop={trace.loop_start}")
    lines.append(",".join(trace.atoms))
    for row in trace.states:
        lines.append(",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


def save_trace(trace: Trace, path: str | Path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(trace_to_csv(trace))
    else:
        path.write_text(trace_to_json(trace))


def parse_eta_spec(spec: str) -> AvoidingFunction:
    """``table:v0,v1,...``, ``gauss:K`` (exp(-(n/K)^2) tabulated), or ``crisp``."""
    if spec == "crisp":
        return AvoidingFunction.crisp()
    if spec.startswith("table:"):
        body = spec[len("table:"):]
        try:
            values = tuple(float(v) for v in body.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad eta table {body!r}") from exc
        return AvoidingFunction(values)
    if spec.startswith("gauss:"):
        body = spec[len("gauss:"):]
        if not body.isdecimal():
            raise ValidationError(f"bad gaussian width {body!r}")
        # checked before the K+1-entry table is built, as the parser checks bounds
        return AvoidingFunction.gaussian(below_ceiling(body, "gaussian width"))
    raise ValidationError(
        f"unknown eta spec {spec!r}; use 'table:v0,v1,...', 'gauss:K', or 'crisp'"
    )
