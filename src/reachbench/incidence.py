"""The incidence data model: W matrix, Y frequencies, f_k counts, rebinning.

An element-by-sampling-unit incidence matrix is stored densely: the
ascending ids of the observed elements and one 0/1 ``uint8`` array W with a
row per element and a column per unit.  All estimator inputs derive from W:
the incidence frequencies Y_i are its row sums, the frequency counts f_k a
``bincount`` of Y, and the observed richness its row count.  Merging
consecutive units by logical OR (rebinning) simulates coarser sampling-unit
sizes on the same campaign.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, compress
from types import MappingProxyType

import numpy as np

log = logging.getLogger(__name__)


class IncidenceError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    t: int
    element_ids: tuple  # ascending
    w: np.ndarray  # uint8 0/1, (len(element_ids), t); no all-zero row

    def __eq__(self, other):
        """Value equality; a generated ``==`` would raise on the array field."""
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return (self.t == other.t and self.element_ids == other.element_ids
                and np.array_equal(self.w, other.w))

    @property
    def rows(self):
        """Read-only view: element id -> ascending tuple of unit indices."""
        return MappingProxyType({i: tuple(np.flatnonzero(row).tolist())
                                 for i, row in zip(self.element_ids, self.w)})

    def units(self):
        """The per-unit coverage sets."""
        ids = np.array(self.element_ids, dtype=np.int64)
        return [frozenset(ids[np.flatnonzero(col)].tolist()) for col in self.w.T]


@dataclass(frozen=True)
class FrequencyCounts:
    t: int
    f: dict  # k -> f_k, only k >= 1 with f_k > 0
    s_obs: int
    y: tuple  # per-element incidence frequencies, element-id order

    def fk(self, k: int) -> int:
        return self.f.get(k, 0)

    @property
    def total_incidence(self) -> int:
        return sum(k * fk for k, fk in self.f.items())


def build_incidence_matrix(units) -> IncidenceMatrix:
    """W from a sequence of per-unit coverage sets; element order is ascending id."""
    units = list(units)
    if not units:
        raise IncidenceError("empty campaign log")
    sizes = [len(u) for u in units]
    els = np.fromiter(chain.from_iterable(units), dtype=np.int64, count=sum(sizes))
    ids, row = np.unique(els, return_inverse=True)
    w = np.zeros((len(ids), len(units)), dtype=np.uint8)
    w[row, np.repeat(np.arange(len(units)), sizes)] = 1
    return IncidenceMatrix(t=len(units), element_ids=tuple(ids.tolist()), w=w)


def counts_from_y(t: int, y) -> FrequencyCounts:
    """FrequencyCounts of the incidence frequencies ``y`` (all >= 1)."""
    counts = np.bincount(y)
    k = np.flatnonzero(counts)
    return FrequencyCounts(t=t, f=dict(zip(k.tolist(), counts[k].tolist())),
                           s_obs=len(y), y=tuple(y.tolist()))


def frequency_counts(matrix: IncidenceMatrix) -> FrequencyCounts:
    return counts_from_y(matrix.t, matrix.w.sum(axis=1))


def rebin(matrix: IncidenceMatrix, m: int) -> IncidenceMatrix:
    """Merge every m consecutive units by logical OR.

    A trailing remainder of fewer than m units is dropped with a warning
    rather than padded (padding would fabricate absence data).
    """
    if m < 1:
        raise IncidenceError("merge factor must be >= 1")
    if m > matrix.t:
        raise IncidenceError(f"merge factor {m} exceeds unit count {matrix.t}")
    if m == 1:
        return matrix
    t_new = matrix.t // m
    if matrix.t % m:
        log.warning("rebin: dropping %d trailing units (t=%d, m=%d)", matrix.t % m, matrix.t, m)
    s = len(matrix.element_ids)
    w = matrix.w[:, :t_new * m].reshape(s, t_new, m).any(axis=2)
    return _observed(t_new, matrix.element_ids, w)


def head(matrix: IncidenceMatrix, t: int) -> IncidenceMatrix:
    """The first t units (all of them if t >= matrix.t), as if the campaign
    had stopped there: the elements they never cover are dropped."""
    if t < 1:
        raise IncidenceError("empty campaign log")
    if t >= matrix.t:
        return matrix
    return _observed(t, matrix.element_ids, matrix.w[:, :t])


def _observed(t, element_ids, w) -> IncidenceMatrix:
    """The matrix of 0/1 (or bool) rows ``w`` without its all-zero rows."""
    keep = w.any(axis=1)
    return IncidenceMatrix(t=t, element_ids=tuple(compress(element_ids, keep)),
                           w=w[keep].view(np.uint8))


# ---------------------------------------------------------------------------
# Dense CSV export/import for external statistical tools.
# Header: element_id,u0,u1,...; one 0/1 row per element.
# ---------------------------------------------------------------------------

def to_dense_csv(matrix: IncidenceMatrix) -> str:
    header = "element_id," + ",".join(f"u{j}" for j in range(matrix.t))
    lines = [header] + [f"{i}," + ",".join(map(str, row))
                        for i, row in zip(matrix.element_ids, matrix.w.tolist())]
    return "\n".join(lines) + "\n"


def from_dense_csv(text: str) -> IncidenceMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise IncidenceError("empty CSV")
    header = lines[0].split(",")
    if header[0] != "element_id":
        raise IncidenceError("line 1: expected 'element_id' header column")
    t = len(header) - 1
    if t == 0:
        raise IncidenceError("line 1: no unit columns after 'element_id'")
    rows = {}
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != t + 1:
            raise IncidenceError(f"line {lineno}: expected {t + 1} columns, got {len(cells)}")
        try:
            el = int(cells[0])
        except ValueError as exc:
            raise IncidenceError(f"line {lineno}: bad element id {cells[0]!r}") from exc
        for j, cell in enumerate(cells[1:]):
            if cell not in ("0", "1"):
                raise IncidenceError(
                    f"line {lineno}, column {j + 2}: non-binary entry {cell!r}"
                )
        if el in rows:
            raise IncidenceError(f"line {lineno}: duplicate element id {el}")
        rows[el] = [cell == "1" for cell in cells[1:]]
    ids = sorted(el for el, row in rows.items() if any(row))
    w = np.array([rows[i] for i in ids], dtype=np.uint8).reshape(len(ids), t)
    return IncidenceMatrix(t=t, element_ids=tuple(ids), w=w)
