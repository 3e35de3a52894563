"""Deterministic file output: CSV, canonical JSON, flat config, tiny SVG.

Every artifact is reproducible byte for byte from identical inputs: floats
are printed with 17 significant digits, JSON keys are sorted, CSV uses
RFC-4180 CRLF line endings, and nothing emits timestamps or hostnames.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError

_PALETTE = ("#1f3a93", "#c0392b", "#14865c", "#8e44ad", "#b7950b", "#1a7a8a")
_CSV_BLOCK_ROWS = 2048


def fmt(x: float) -> str:
    """17-significant-digit text form of a float; -0.0 is normalized."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return "%.17g" % x


def _csv_lines(rows: int, line: str) -> Iterator[str]:
    """The ``%`` format of each block of ``rows`` rows, one at a time: ``line`` per row."""
    return (line * min(_CSV_BLOCK_ROWS, rows - i) for i in range(0, rows, _CSV_BLOCK_ROWS))


def _csv_pieces(header: Sequence[str], formats: Iterable[str],
                *parts: np.ndarray) -> Iterator[str]:
    """CSV text in pieces: the header line, then each block of rows of the
    ``parts`` side by side, formatted by its entry of ``formats``."""
    # A block of rows at a time bounds the copies and the temporary Python
    # floats and strings.  Adding 0.0 maps -0.0 to 0.0, as fmt() does;
    # 17-digit numbers, inf and nan never contain "%" or need CSV quoting.
    yield ",".join(header) + "\r\n"
    for start, form in zip(range(0, len(parts[0]), _CSV_BLOCK_ROWS), formats):
        block = np.column_stack([part[start:start + _CSV_BLOCK_ROWS] for part in parts])
        yield form % tuple((block + 0.0).ravel().tolist())


def csv_text(header: Sequence[str], *parts: np.ndarray) -> str:
    """CSV text of float arrays side by side, as ``np.column_stack(parts)``:
    CRLF endings, 17-digit floats.

    ``header`` holds plain identifiers, which CSV never quotes, one per
    column.  The rows are formatted one block of rows per ``%`` operation.
    """
    parts = tuple(np.asarray(part, dtype=float) for part in parts)
    formats = _csv_lines(len(parts[0]), ",".join(["%.17g"] * len(header)) + "\r\n")
    return "".join(_csv_pieces(header, formats, *parts))


def write_csv_series(paths: Iterable[str | Path], header: Sequence[str], lead: np.ndarray,
                     tables: Iterable[np.ndarray]) -> None:
    """Write one CSV per ``(path, table)`` pair, all sharing the leading column.

    Each file has the bytes of ``csv_text(header, lead, table)``.  ``lead``
    is 1-D and every ``table`` is a float array of ``len(lead)`` rows and
    ``len(header) - 1`` columns (1-D for one column).  A single file is
    formatted as :func:`csv_text` does, one ``%`` per block of rows over all
    its columns.  For more files the leading column is formatted once, into
    the line formats, so each file costs one ``%`` per block over its own
    columns alone.
    """
    lead = np.asarray(lead, dtype=float)
    if lead.ndim != 1:
        raise DomainError(f"leading column must be 1-D, got shape {lead.shape}")
    paths = list(paths)
    shape = (lead.size, len(header) - 1)
    formats = _csv_lines(lead.size, ",".join(["%.17g"] * len(header)) + "\r\n")
    if len(paths) > 1:
        # each field's "%.17g" escaped so that it survives the leads' "%"
        lines = _csv_lines(lead.size, "%.17g" + ",%%.17g" * shape[1] + "\r\n")
        formats = [form % tuple((lead[i:i + _CSV_BLOCK_ROWS] + 0.0).tolist())
                   for i, form in zip(range(0, lead.size, _CSV_BLOCK_ROWS), lines)]
    for path, table in zip(paths, tables, strict=True):
        table = np.asarray(table, dtype=float)
        table = table[:, None] if table.ndim == 1 else table
        if table.shape != shape:
            raise DomainError(f"table has shape {table.shape}; expected {shape}")
        parts = (table,) if len(paths) > 1 else (lead, table)
        with open(Path(path), "w", newline="", encoding="utf-8") as fh:
            fh.writelines(_csv_pieces(header, formats, *parts))


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses/numpy/complex values to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return 0.0 if v == 0.0 else v
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if obj is None or isinstance(obj, str):
        return obj
    raise DomainError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Sorted-key, 2-space-indented JSON text with a trailing newline."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj))


def parse_config(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` text; ``#`` starts a comment; last key wins."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise DomainError(f"config line {lineno}: empty key")
        out[key] = val.strip()
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}

# How config_value parses each kind, and what its error says of a bad value.
_CONFIG_KINDS = {
    float: (float, "not a number: {!r}"),
    int: (int, "not an integer: {!r}"),
    str: (str, ""),
    bool: (lambda text: _BOOLS[text.strip().lower()], "expected a boolean, got {!r}"),
    list: (lambda text: [float(s) for s in text.split(",") if s.strip()], "not a number list"),
}


def config_value(cfg: dict[str, str], key: str, kind: type, default: Any = None) -> Any:
    """``cfg[key]`` parsed as ``kind``: ``float``, ``int``, ``str``, ``bool``
    (``1/true/yes/on`` or ``0/false/no/off``, any case) or ``list`` (a comma
    list of floats).  A missing key gives ``default`` (copied for ``list``);
    without a default it is required.  Raises :class:`DomainError`.
    """
    if key not in cfg:
        if default is None:
            raise DomainError(f"config key {key!r} is required")
        return list(default) if kind is list else default
    parse, problem = _CONFIG_KINDS[kind]
    try:
        return parse(cfg[key])
    except (ValueError, KeyError) as exc:
        raise DomainError(f"config key {key!r}: " + problem.format(cfg[key])) from exc


def _svg_coord(v: float) -> str:
    return "%.4f" % v


def write_svg(path: str | Path, curves: Sequence[tuple[np.ndarray, np.ndarray, str]],
              xlabel: str, ylabel: str) -> None:
    """Plot parametric curves as native SVG polylines with axis labels.

    ``curves`` is a sequence of ``(x, y, label)`` triples sharing one frame
    of 640 by 480 pixels.
    """
    if not curves:
        raise DomainError("write_svg needs at least one curve")
    width, height = 640, 480
    margin = 56.0
    xs = np.concatenate([np.asarray(c[0], dtype=float) for c in curves])
    ys = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    px = width - 2.0 * margin
    py = height - 2.0 * margin

    def mapx(x: np.ndarray) -> np.ndarray:
        return margin + (x - x_lo) / (x_hi - x_lo) * px

    def mapy(y: np.ndarray) -> np.ndarray:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_svg_coord(margin)}" y="{_svg_coord(margin)}" '
        f'width="{_svg_coord(px)}" height="{_svg_coord(py)}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{_svg_coord(width / 2.0)}" y="{_svg_coord(height - 14.0)}" '
        f'text-anchor="middle" font-size="16">{xlabel}</text>',
        f'<text x="{_svg_coord(18.0)}" y="{_svg_coord(height / 2.0)}" '
        f'text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 18 {_svg_coord(height / 2.0)})">{ylabel}</text>',
        f'<text x="{_svg_coord(margin)}" y="{_svg_coord(height - margin + 18.0)}" '
        f'text-anchor="middle" font-size="11">{fmt(x_lo)[:10]}</text>',
        f'<text x="{_svg_coord(width - margin)}" y="{_svg_coord(height - margin + 18.0)}" '
        f'text-anchor="middle" font-size="11">{fmt(x_hi)[:10]}</text>',
        f'<text x="{_svg_coord(margin - 6.0)}" y="{_svg_coord(height - margin)}" '
        f'text-anchor="end" font-size="11">{fmt(y_lo)[:10]}</text>',
        f'<text x="{_svg_coord(margin - 6.0)}" y="{_svg_coord(margin + 4.0)}" '
        f'text-anchor="end" font-size="11">{fmt(y_hi)[:10]}</text>',
    ]
    for idx, (cx, cy, label) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        X = mapx(np.asarray(cx, dtype=float))
        Y = mapy(np.asarray(cy, dtype=float))
        pts = " ".join(f"{_svg_coord(a)},{_svg_coord(b)}" for a, b in zip(X, Y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{_svg_coord(margin + 8.0)}" '
                     f'y="{_svg_coord(margin + 18.0 + 16.0 * idx)}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
