"""Scenario configuration: a flat key/section text format, and the typed
rows a config is checked against.

Top-level lines are ``key = value``; repeated ``[section]`` headers open
list entries (blocks, constant blocks), and a key set twice in one scope
is an error.  The parser keeps each value as the text of its line; the
key's ``Opt`` row alone types it, as a number, a whitespace-separated
number list, a word or a string as written.  Polynomial coefficient lists
are written lowest degree first.  Parsing errors carry line numbers, and
the parser records the line of each key and section header; serialization
writes the values as written and round-trips to an equal config.
"""

from __future__ import annotations

import contextlib
import math
from typing import NamedTuple

__all__ = ["ConfigError", "Opt", "REQUIRED", "FLOATS", "INTS", "WINDOW",
           "ScenarioConfig", "parse_config", "parse_config_text",
           "serialize_config"]

REQUIRED = object()                 # the default of a key that must be set
FLOATS, INTS, WINDOW = "floats", "ints", "window"   # list kinds of an Opt


class ConfigError(ValueError):
    pass


def _as_num(val, kind, what, bounds="[-inf, inf]"):
    """``val`` as a finite ``kind`` (int or float) inside ``bounds``, an
    interval such as ``"(0, 100]"``, or a ConfigError naming ``what``.  An
    int takes an integral float such as 4.0 or 1e3, rejects fractional
    values and reads plain digits exactly."""
    try:
        x = float(val)
        out = x if kind is float else int(x)
        bad = not math.isfinite(x) or out != x
    except (ValueError, OverflowError):
        bad = True
    if bad:
        need = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{what} needs {need}, got {val!r}")
    if kind is int:
        with contextlib.suppress(ValueError):
            out = int(val)              # plain digits, exact past 2**53
    lo, hi = (float(t) for t in bounds[1:-1].split(","))
    if not ((lo < out if bounds[0] == "(" else lo <= out)
            and (out < hi if bounds[-1] == ")" else out <= hi)):
        raise ConfigError(f"{what} needs a value in {bounds}, got {val!r}")
    return out


class Opt(NamedTuple):
    """One config key: its kind (int, float, str, a tuple of allowed words,
    or a number list: FLOATS, INTS, or WINDOW of lo hi pairs, lo < hi), its
    default (REQUIRED if it has none), the interval its numbers lie in and
    a list's allowed lengths (any if none; a key named there stands for
    that key's value, or its length)."""
    kind: object
    default: object = REQUIRED
    bounds: str = "[-inf, inf]"
    sizes: tuple = ()

    def check(self, val, what, done):
        """``val``, the text of a key's line, typed, or a ConfigError naming
        ``what``; ``done`` holds the values typed before it."""
        kind = self.kind
        if isinstance(kind, tuple) and val not in kind:
            raise ConfigError(
                f"{what} needs one of {', '.join(kind)}, got {val!r}")
        if kind is str or isinstance(kind, tuple):
            return val
        if kind in (int, float):
            return _as_num(val, kind, what, self.bounds)
        vals = val.split()
        if not vals:
            raise ConfigError(f"{what} needs at least one number")
        sizes = sorted({len(n) if isinstance(n, list) else n
                        for n in (done.get(k, k) for k in self.sizes)})
        if sizes and len(vals) not in sizes:
            raise ConfigError(f"{what} needs {' or '.join(map(str, sizes))}"
                              f" values, got {len(vals)}")
        out = [_as_num(x, int if kind == INTS else float, what) for x in vals]
        if kind == WINDOW and any(a >= b for a, b in zip(out[::2], out[1::2])):
            raise ConfigError(f"{what} needs lo < hi in each pair, got {val!r}")
        return out


class ScenarioConfig:
    def __init__(self):
        self.options = {}
        self.sections = []     # (name, dict) pairs
        # (section index or None for the top level, key) -> line; the key
        # None gives a section's header line
        self.lines = {}

    def at(self, i, key):
        """Key ``key`` of section ``i`` (None: the top level) and the line
        that sets it, for error messages."""
        what = f"[{self.sections[i][0]}] key" if i is not None else "option"
        line = self.lines.get((i, key))
        return f"line {line}: {what} {key!r}" if line else f"{what} {key!r}"

    def typed(self, rows, i=None):
        """The top-level options, or section ``i``, checked against
        ``rows`` (key -> Opt) and typed, defaults filled in; the first
        unknown, missing or bad key raises a ConfigError with its line."""
        d = self.options if i is None else self.sections[i][1]
        for key in d:
            if key not in rows:
                raise ConfigError(f"{self.at(i, key)} is unknown here")
        out = {}
        for key, opt in rows.items():
            if key not in d and opt.default is REQUIRED:
                raise ConfigError(
                    f"line {self.lines[i, None]}: [{self.sections[i][0]}] "
                    f"section lacks required key {key!r}")
            out[key] = (opt.check(d[key], self.at(i, key), out) if key in d
                        else opt.default)
        return out


def parse_config_text(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    current = cfg.options
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section "
                                  f"header {raw!r}")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            current = {}
            cfg.lines[len(cfg.sections), None] = lineno
            cfg.sections.append((name, current))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        i = len(cfg.sections) - 1 if cfg.sections else None
        if key in current:
            raise ConfigError(f"{cfg.at(i, key)} is set again on line "
                              f"{lineno}")
        current[key] = val.strip()
        cfg.lines[i, key] = lineno
    return cfg


def parse_config(path) -> ScenarioConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: "
                          f"{exc.reason})") from None
    return parse_config_text(text)


def serialize_config(cfg: ScenarioConfig) -> str:
    lines = []
    for k in sorted(cfg.options):
        lines.append(f"{k} = {cfg.options[k]}")
    for name, d in cfg.sections:
        lines.append("")
        lines.append(f"[{name}]")
        for k in sorted(d):
            lines.append(f"{k} = {d[k]}")
    return "\n".join(lines) + "\n"
