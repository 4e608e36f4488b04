"""Output fingerprints and the reference check.

A fingerprint keeps what the check needs and no more:
  rc      exit code of `heightlab.cli.main` (0 for a library call)
  sha     sha256 of the raw output, for the byte-identity report
  exact   sha256 of the parsed output with every float replaced by a marker:
          structure, integers, strings and booleans must match exactly
  floats  the float leaves in order, when there are at most MAX_FLOATS;
  fsum    otherwise four sums over them (plain, absolute, position-weighted
          and its absolute), compared within the same relative tolerance

JSON objects are compared with sorted keys; CSV cells are typed as int,
float or string.  Non-finite floats are compared exactly, as strings.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

REL_TOL = 1e-9
MAX_FLOATS = 64
_INT = re.compile(r"-?\d+\Z")


def _cell(text: str):
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse(text: str):
    """Parse JSON output, or CSV output (which starts with a '#' header)."""
    if text.startswith("#"):
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    return json.loads(text)


def _skeleton(value, floats: list):
    if isinstance(value, float):
        if math.isfinite(value):
            floats.append(value)
            return "\x00f"
        return f"\x00{value!r}"
    if isinstance(value, dict):
        return {k: _skeleton(v, floats) for k, v in value.items()}
    if isinstance(value, list):
        return [_skeleton(v, floats) for v in value]
    return value


def _sums(floats: list) -> list:
    w = [(i % 101) + 1 for i in range(len(floats))]
    return [math.fsum(floats), math.fsum(abs(x) for x in floats),
            math.fsum(wi * x for wi, x in zip(w, floats)),
            math.fsum(wi * abs(x) for wi, x in zip(w, floats))]


def fingerprint(rc: int, text: str) -> dict:
    fp = {"rc": rc, "sha": hashlib.sha256(text.encode()).hexdigest()}
    if rc != 0:
        return fp
    floats: list = []
    skel = _skeleton(parse(text), floats)
    canon = json.dumps(skel, sort_keys=True, separators=(",", ":"))
    fp["exact"] = hashlib.sha256(canon.encode()).hexdigest()
    if len(floats) <= MAX_FLOATS:
        fp["floats"] = floats
    else:
        fp["fsum"] = [len(floats)] + _sums(floats)
    return fp


def compare(got: dict, ref: dict) -> str | None:
    """None when `got` matches `ref`, else the reason it does not."""
    if got["rc"] != ref["rc"]:
        return f"exit code {got['rc']}, expected {ref['rc']}"
    if got.get("exact") != ref.get("exact"):
        return "integers, strings or structure differ"
    if "floats" in ref:
        if len(got.get("floats", ())) != len(ref["floats"]):
            return "number of floats differs"
        for i, (a, b) in enumerate(zip(got["floats"], ref["floats"])):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
                return f"float #{i} is {a!r}, expected {b!r}"
        return None
    if "fsum" in ref:
        g, r = got.get("fsum"), ref["fsum"]
        if g is None or g[0] != r[0]:
            return "number of floats differs"
        # |sum of changes| <= tol * sum of |values|, plus rounding of the sums
        slack = REL_TOL + 4 * r[0] * 2.0 ** -52
        if abs(g[1] - r[1]) > slack * r[2] or abs(g[3] - r[3]) > slack * r[4]:
            return "float values differ beyond the relative tolerance"
    return None
