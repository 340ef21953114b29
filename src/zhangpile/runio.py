"""Run records and delimited output.

Every output file starts with a spec-echo line holding the canonical JSON of
the experiment parameters plus the package version, so a run can be
reproduced from the file alone.  Reals are printed with 17 significant
digits for bit-faithful round trips; no locale, '.' decimal point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby


def fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_real(v)
    if v is None:
        return ""
    return str(v)


def make_spec(subcommand: str, **params) -> dict:
    """The ``{"subcommand", "params"}`` dict that a run's echo line holds."""
    # normalize through JSON so tuples/np scalars compare equal after round trip
    clean = json.loads(json.dumps(params, sort_keys=True, default=_jsonable))
    return {"subcommand": subcommand, "params": clean}


def _jsonable(v):
    if hasattr(v, "item"):
        return v.item()
    if isinstance(v, (set, tuple)):
        return list(v)
    raise TypeError(f"not JSON-serializable: {v!r}")


def echo_payload(spec: dict, version: str) -> str:
    return json.dumps({"spec": spec, "version": version},
                      sort_keys=True, separators=(",", ":"))


def echo_line(spec: dict, version: str) -> str:
    return "# " + echo_payload(spec, version)


def parse_echo(line: str) -> dict:
    """Recover the {spec, version} payload from a file's first line."""
    line = line.strip()
    if line.startswith("#"):
        line = line[1:].strip()
    return json.loads(line)


def _fmt_row(row) -> str:
    # a run of exact int cells, the bulk of a histogram table, is printed by
    # one %d template; every other cell (bool, None, float, str, numpy
    # scalar) by _fmt_cell
    parts = []
    for kind, cells in groupby(row, type):
        if kind is int:
            cells = tuple(cells)
            parts.append(("%d," * len(cells))[:-1] % cells)
        else:
            parts.extend(map(_fmt_cell, cells))
    return ",".join(parts)


def write_csv(fobj, spec: dict, version: str, columns, rows) -> None:
    fobj.write(echo_line(spec, version) + "\n")
    fobj.write(",".join(columns) + "\n")
    for row in rows:
        fobj.write(_fmt_row(row) + "\n")


def write_jsonl(fobj, spec: dict, version: str, records) -> None:
    fobj.write(echo_payload(spec, version) + "\n")
    for rec in records:
        fobj.write(json.dumps(rec, sort_keys=True) + "\n")


@dataclass
class RunRecord:
    """One run's outputs bundled with its provenance.

    CSV payloads are row lists matched to ``columns``; JSONL payloads are dicts.
    """

    spec: dict
    version: str
    seed: int | None
    columns: list | None = None
    rows: list | None = None
    records: list | None = None

    def write(self, fobj, fmt: str = "csv") -> None:
        if fmt == "jsonl":
            recs = self.records
            if recs is None:
                recs = [dict(zip(self.columns, row)) for row in self.rows]
            write_jsonl(fobj, self.spec, self.version, recs)
        else:
            rows = self.rows
            if rows is None:
                rows = [[rec.get(c) for c in self.columns] for rec in self.records]
            write_csv(fobj, self.spec, self.version, self.columns, rows)
