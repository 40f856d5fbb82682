"""Residual reports: named check -> measured value vs tolerance."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


def fmt(x) -> str:
    """17-significant-digit float formatting, stable across runs."""
    return f"{float(x):.17g}"


@dataclass
class CheckEntry:
    name: str
    anchor: str                 # short tag of the identity being checked
    value: float                # measured residual / margin / deviation
    tolerance: float
    mode: str = "max<=tol"      # or "min>=tol"
    samples: int = 0
    excluded: int = 0
    note: str = ""
    # the signed quantity behind a value that is a distance to a target,
    # for readers of the entry; line() does not print it
    measured: float | None = None

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


@dataclass
class ResidualReport:
    title: str
    entries: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

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
        pool = [e for e in self.entries
                if not names or e.name in names]
        return max((e.value for e in pool), default=0.0)

    def format(self) -> str:
        lines = [f"report={self.title}"]
        for k in sorted(self.provenance):
            lines.append(f"provenance.{k}={self.provenance[k]}")
        lines.extend(e.line() for e in self.entries)
        lines.append(f"overall={'pass' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
