"""Trace files (JSON and CSV) and the command line's avoiding-table forms."""

from __future__ import annotations

import functools
import gc
import json
import re
from itertools import chain
from pathlib import Path
from typing import Optional

from .core import AvoidingFunction, Trace, _FloatRows, degree
from .errors import ValidationError
from .parser import _is_atom_name, below_ceiling


def _check_atom_names(atoms) -> tuple[str, ...]:
    names = tuple(atoms)
    for name in names:
        if not isinstance(name, str) or not _is_atom_name(name):
            raise ValidationError(f"{name!r} is not a usable atom name")
    return names


def _json_rows(states):
    """The rows for ``Trace``.  Refuse a JSON string or boolean cell, which
    ``float`` would read as a number, naming the first bad cell in row-major
    order as ``Trace`` does; rows of floats alone go as ``_FloatRows``.  One
    C-level pass over the cell types decides both."""
    cells = chain.from_iterable
    types = set(map(type, cells(states)))
    if {float}.issuperset(types):
        return _FloatRows(states)
    if {str, bool}.isdisjoint(types):
        return states
    for v in cells(states):  # there is a bad cell, so this walk raises
        if type(v) in (str, bool):
            raise ValidationError(f"truth degree {v!r} is not a number")
        degree(v)  # raises for an earlier bad cell of another kind


def _collector_paused(load):
    """Run ``load`` with the cyclic garbage collector off.

    A parsed document and the ``Trace`` built from it hold no reference
    cycles, so a collection during loading finds nothing to free.  Yet each
    row allocates containers, and on a 100,000-state trace the collector
    would run about 300 times, twice over the whole heap.
    """

    @functools.wraps(load)
    def paused(text: str) -> Trace:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(text)
        finally:
            if enabled:
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
    return Trace(atoms, _json_rows(states), loop)


@_collector_paused
def trace_from_csv(text: str) -> Trace:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
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
    rows = []
    for ln in lines[1:]:
        try:
            # float() ignores the whitespace around a cell
            rows.append(tuple(map(float, ln.split(","))))
        except ValueError as exc:
            raise ValidationError(f"bad CSV value in row {ln!r}") from exc
    return Trace(atoms, _FloatRows(rows), loop)  # float() made every cell


def load_trace(path: str | Path) -> Trace:
    try:
        text = Path(path).read_text(encoding="utf-8")
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
