"""Report emission: canonical JSON machine form and aligned human tables.

`machine_json` is the one writer of the canonical form.  Rationals
serialize as "p/q" strings (never floats, never bare integers) and tuples
become arrays.  Dict keys are `str(k)`, emitted in sorted order and
followed by ": ".  Array and object items go one per line, split by ",",
with one space of indent per level of nesting; empty containers are `[]`
and `{}`.  The output is ASCII only: every other character is a `\\uXXXX`
escape.  These are the bytes of `json.dumps(to_jsonable(v),
sort_keys=True, separators=(",", ": "), indent=1)`, so two runs over the
same inputs produce byte-identical machine output.  The writer handles
`FiniteDist` and `WorldState` itself, with no `to_jsonable` copy, and
renders each repeated law or world object once per call at each indent.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .exactprob import FiniteDist, Record
from .inference import ClassificationReport, RubinAuditReport
from .mc import McReport
from .sampling import WorldState

_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


def to_jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return _frac(value)
    if isinstance(value, float):
        return value
    if isinstance(value, FiniteDist):
        return {"dist": [[to_jsonable(o), to_jsonable(w)] for o, w in value.items]}
    if isinstance(value, WorldState):
        return {
            "y": to_jsonable(value.y),
            "z": to_jsonable(value.z),
            "r": to_jsonable(value.r),
        }
    if isinstance(value, (tuple, list)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, Record):
        names = value._names
    elif hasattr(value, "__dataclass_fields__"):  # a dataclass from outside the engine, so one is loaded
        names = [f.name for f in sys.modules["dataclasses"].fields(value)]
    else:
        return repr(value)
    # field by field: `asdict` would turn a nested law into {"items": ...}
    attributes = ((name, getattr(value, name)) for name in names)
    return {k: to_jsonable(v) for k, v in attributes if not callable(v)}


def machine_json(payload) -> str:
    """The canonical JSON of `payload`, written in one pass (see the module
    docstring for the format)."""
    out = []
    _write(payload, out, "\n", {})
    return "".join(out)


def _write(value, out, newline, memo):
    """Append the canonical JSON of `value` to `out`; `newline` is a line
    break followed by the indent of the line `value` starts on.  `memo`
    maps (id, newline) of a law or world already written in this call to
    (the value, its text).  Exact types are tested first; subclasses and
    the remaining JSON types take the `isinstance` chain, and other types
    are converted by `to_jsonable`."""
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is Fraction:
        out.append(f'"{value.numerator}/{value.denominator}"')
    elif kind is tuple or kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + " "
        separator = "," + inner
        out.append("[" + inner)
        for item in value:
            if type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write(item, out, inner, memo)
            out.append(separator)
        out[-1] = newline + "]"  # in place of the last item's separator
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        items = {str(k): v for k, v in value.items()}  # a later key wins, as in to_jsonable
        inner = newline + " "
        separator = "," + inner
        out.append("{" + inner)
        for key in sorted(items):
            out.append(_escape(key) + ": ")
            _write(items[key], out, inner, memo)
            out.append(separator)
        out[-1] = newline + "}"
    elif kind is FiniteDist or kind is WorldState:
        entry = memo.get((id(value), newline))
        if entry is None:
            text = []
            _write(
                {"dist": value.items} if kind is FiniteDist
                else {"r": value.r, "y": value.y, "z": value.z},
                text, newline, memo,
            )
            # holding `value` keeps its id from being reused in this call
            entry = memo[id(value), newline] = (value, "".join(text))
        out.append(entry[1])
    elif isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, Fraction):
        out.append(f'"{_frac(value)}"')
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (tuple, list)):
        _write(list(value), out, newline, memo)
    elif isinstance(value, dict):
        _write(dict(value.items()), out, newline, memo)
    else:
        _write(to_jsonable(value), out, newline, memo)


def _float(value) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _aligned(rows) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows
    )


def classification_payload(report: ClassificationReport) -> dict:
    return {
        "type": "classification",
        "inference": report.inference_type,
        "verdict": report.verdict,
        "alpha": report.alpha,
        "flags": dict(report.flags),
        "witnesses": [
            {"kind": w.kind, "equal": w.equal, "detail": dict(w.detail)}
            for w in report.witnesses
        ],
    }


def classification_human(report: ClassificationReport) -> str:
    rows = [
        ["inference", report.inference_type],
        ["verdict", report.verdict],
        ["alpha", "" if report.alpha is None else _frac(report.alpha)],
    ]
    for name, value in report.flags:
        rows.append([f"flag {name}", value])
    lines = [_aligned(rows), ""]
    for w in report.witnesses:
        lines.append(f"witness {w.kind}: {'equal' if w.equal else 'DIFFERS'}")
        for name, value in w.detail:
            rendered = _compact(value)
            if w.equal and len(rendered) > 200:
                size = len(value) if isinstance(value, (tuple, list)) else "?"
                rendered = f"<{size} entries agree; full table in --json>"
            lines.append(f"  {name} = {rendered}")
    return "\n".join(lines)


def mc_payload(report: McReport) -> dict:
    return {
        "type": "mc",
        "draws": report.draws,
        "seed": report.seed,
        "max_abs_deviation": repr(report.max_abs_deviation),
        "three_sigma_bound": repr(report.three_sigma_bound),
        "cells_outside": report.cells_outside,
        "cells": [
            {
                "outcome": c.outcome,
                "exact": c.exact,
                "count": c.count,
                "frequency": repr(c.frequency),
                "band": repr(c.band),
                "within": c.within,
            }
            for c in report.cells
        ],
    }


def mc_human(report: McReport) -> str:
    rows = [["outcome", "exact", "count", "frequency", "band", "within"]]
    for c in report.cells:
        rows.append(
            [
                _compact(c.outcome),
                _frac(c.exact),
                c.count,
                f"{c.frequency:.6f}",
                f"{c.band:.6f}",
                "yes" if c.within else "NO",
            ]
        )
    tail = (
        f"\ndraws={report.draws} seed={report.seed} "
        f"max_abs_deviation={report.max_abs_deviation:.6f} "
        f"cells_outside={report.cells_outside}"
    )
    return _aligned(rows) + tail


def rubin_payload(report: RubinAuditReport) -> dict:
    return {
        "type": "rubin_audit",
        "x": report.x,
        "mar": report.mar,
        "oar": report.oar,
        "distinct": report.distinct,
        "theorems": [
            {
                "theorem": a.theorem,
                "hypothesis": a.hypothesis_true,
                "conclusion": a.conclusion_true,
                "counterexample": a.counterexample(),
            }
            for a in report.audits
        ],
    }


def rubin_human(report: RubinAuditReport) -> str:
    head = _aligned(
        [
            ["x", _compact(report.x)],
            ["mar", report.mar],
            ["oar", report.oar],
            ["distinct", report.distinct],
        ]
    )
    rows = [["theorem", "hypothesis", "conclusion", "counterexample"]]
    for a in report.audits:
        rows.append(
            [a.theorem, a.hypothesis_true, a.conclusion_true, a.counterexample()]
        )
    return head + "\n\n" + _aligned(rows)


def emit_report(report, json_form: bool = False) -> str:
    """Render a classification, Monte Carlo or Rubin audit report;
    canonical JSON under json_form."""
    if isinstance(report, ClassificationReport):
        payload, human = classification_payload(report), classification_human(report)
    elif isinstance(report, McReport):
        payload, human = mc_payload(report), mc_human(report)
    else:
        payload, human = rubin_payload(report), rubin_human(report)
    return machine_json(payload) if json_form else human


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _compact(value) -> str:
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))
