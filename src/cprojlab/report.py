"""Residual reports: named check -> measured value vs tolerance; and the
package's one error base, ``Error``."""

from __future__ import annotations

import hashlib
import math


class Error(ValueError):
    """A config or instance that cannot be built or checked; ``sample``
    is the first failing one of a guard that decides at each sample."""

    def __init__(self, what, sample=None):
        super().__init__(what)
        self.sample = sample

    def __str__(self):
        at = "" if self.sample is None else f" at sample {self.sample}"
        return super().__str__() + at


def nan_max(*values) -> float:
    """The largest value, or NaN if any is NaN: Python's ``max`` keeps a
    NaN only in first place, so a residual that is NaN would read as a
    pass."""
    out = values[0]
    for v in values[1:]:
        if v > out or v != v:
            out = v
    return out


def fmt(x) -> str:
    """17-significant-digit float formatting, stable across runs."""
    return f"{float(x):.17g}"


class CheckEntry:
    """A check's value against its tolerance.  An entry over samples keeps
    the numbers its value is formed from (``of``), so that the entries of
    blocks of samples ``merge`` to the whole batch's, byte for byte.

    ``value`` is the measured residual, margin or deviation, held to
    ``tolerance`` by ``mode`` (max<=tol or min>=tol), and ``anchor`` is a
    short tag of the identity checked; ``measured`` is the signed
    quantity behind a value that is a distance to a target, for readers
    of the entry (``line`` does not print it)."""

    def __init__(self, name, anchor, value, tolerance, mode="max<=tol",
                 samples=0, excluded=0, note="", measured=None, terms=()):
        self.name, self.anchor, self.value = name, anchor, value
        self.tolerance, self.mode, self.note = tolerance, mode, note
        self.samples, self.excluded = samples, excluded
        self.measured, self.terms = measured, terms

    @classmethod
    def of(cls, name, anchor, terms, tolerance, **kw):
        """The entry valued the largest num / ((1 + s_1) (1 + s_2) ...) of
        its ``terms`` (num, s_1, ...), maxima over samples, 0.0 with none;
        a margin (mode min>=tol) has one term (num, s, k), num a minimum
        (inf over no sample, valued 0.0), valued num / (1 + s)^k."""
        e = cls(name, anchor, 0.0, tolerance, terms=tuple(terms), **kw)
        if e.mode != "min>=tol":
            e.value = nan_max(0.0, *(t[0] / math.prod(1.0 + s for s in t[1:])
                                     for t in e.terms))
        elif e.terms[0][0] != math.inf:
            (low, s, k), = e.terms
            e.value = low / (1.0 + s) ** k
        return e

    def merge(self, later):
        """This entry with the same check's entry of the samples that
        follow: maxima by max and a margin's minimum by min, a NaN kept,
        the counts summed and the value formed again."""
        low = self.mode == "min>=tol"
        return self.of(self.name, self.anchor, [tuple(
            -nan_max(-a, -b) if low and not i else nan_max(a, b)
            for i, (a, b) in enumerate(zip(t, u, strict=True)))
            for t, u in zip(self.terms, later.terms, strict=True)],
            self.tolerance, mode=self.mode, note=self.note,
            samples=self.samples + later.samples,
            excluded=self.excluded + later.excluded)

    @property
    def passed(self) -> bool:
        if self.mode == "min>=tol":
            return self.value >= self.tolerance
        return self.value <= self.tolerance

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (f"check={self.name} anchor={self.anchor} value={fmt(self.value)} "
               f"tol={fmt(self.tolerance)} mode={self.mode} "
               f"samples={self.samples} excluded={self.excluded} {status}")
        if self.note:
            out += f" note={self.note}"
        return out


class ResidualReport:
    def __init__(self, title, entries=()):
        self.title, self.entries, self.provenance = title, list(entries), {}

    def add(self, *entries):
        self.entries.extend(entries)
        return self

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def max_value(self, *names) -> float:
        """The largest value of the entries ``names`` (all if none is
        given), 0.0 if there is none and NaN if any is NaN."""
        vals = [e.value for e in self.entries if not names or e.name in names]
        if any(v != v for v in vals):
            return float("nan")
        return max(vals, default=0.0)

    def format(self) -> str:
        lines = [f"report={self.title}"]
        for k in sorted(self.provenance):
            lines.append(f"provenance.{k}={self.provenance[k]}")
        lines.extend(e.line() for e in self.entries)
        lines.append(f"overall={'pass' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
