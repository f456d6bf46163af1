"""Run configuration with layered resolution.

Precedence, highest first: explicit CLI flags, then the QRPERM_*
environment variables, then a flat key=value config file, then the
dataclass defaults.  The CLI uses argparse.SUPPRESS defaults so "the
user typed it" is detectable; everything below that is resolved here.

The config file format is deliberately dumb: one `key = value` per
line, # comments, no sections.  Unknown keys are an error rather than a
warning because a silently ignored `workes = 8` costs an afternoon.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Any

from .discrepancy import D_EXACT_CAP
from .errors import QrpermError


@dataclass(frozen=True)
class RunConfig:
    command: str = ""
    # family / single-permutation knobs
    family: str = "psi"
    n: int | None = None
    k: int | None = None
    a: int = 1
    b: int = 1
    tau: int | None = None
    seed: int = 1
    alpha: str = "golden"
    tie_break: bool = False
    invert: bool = False
    from_file: str | None = None
    # exponential sum knobs
    kind: str = "weyl"
    m: int | None = None
    c: int = 1
    theta: int | None = None
    t: int | None = None
    # statistics knobs
    alpha_exp: float = 0.5
    exact_cap: int = D_EXACT_CAP
    # scan ranges
    pmin: int = 5
    pmax: int = 127
    nmin: int = 2
    nmax: int = 100
    n_list: str = "64,128,256,512"
    alphas: str = "golden,sqrt:2,sqrt:3"
    a_values: str = "1"
    bound: str = "5"
    limit: int = 1000
    targets: str = ""
    # execution / output
    workers: int = 1
    out: str = "runs"
    base: str | None = None
    plot: str | None = None
    out_file: str | None = None


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, kind: Any, raw: str):
    if kind in ("int", "int | None"):
        try:
            return int(raw)
        except ValueError:
            raise QrpermError(f"config key {name!r} wants an integer, "
                              f"got {raw!r}") from None
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise QrpermError(f"config key {name!r} wants a float, "
                              f"got {raw!r}") from None
    if kind == "bool":
        low = raw.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise QrpermError(f"config key {name!r} wants a boolean, "
                          f"got {raw!r}")
    return raw


def load_config_file(path: str) -> dict[str, Any]:
    """Parse a flat key=value file into typed overrides."""
    types = {f.name: f.type for f in fields(RunConfig)}
    out: dict[str, Any] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:
        # ValueError: undecodable bytes, or a NUL byte in the path
        raise QrpermError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise QrpermError(f"{path}:{lineno}: expected key = value")
        key, _, raw = text.partition("=")
        key = key.strip().replace("-", "_")
        if key == "command":
            raise QrpermError(f"{path}:{lineno}: the command comes from "
                              "the command line, not the config file")
        if key not in types:
            known = ", ".join(sorted(types))
            raise QrpermError(f"{path}:{lineno}: unknown key {key!r} "
                              f"(known: {known})")
        out[key] = _coerce(key, types[key], raw.strip())
    return out


def env_overrides() -> dict[str, Any]:
    out: dict[str, Any] = {}
    if "QRPERM_WORKERS" in os.environ:
        out["workers"] = _coerce("workers", "int",
                                 os.environ["QRPERM_WORKERS"])
    if "QRPERM_OUTDIR" in os.environ:
        out["out"] = os.environ["QRPERM_OUTDIR"]
    return out


def resolve(command: str, cli_pairs: dict[str, Any],
            config_path: str | None = None) -> RunConfig:
    """Merge the three override layers onto the defaults."""
    merged: dict[str, Any] = {"command": command}
    if config_path:
        merged.update(load_config_file(config_path))
    merged.update(env_overrides())
    merged.update(cli_pairs)
    valid = {f.name for f in fields(RunConfig)}
    stray = set(merged) - valid
    if stray:
        raise QrpermError(f"unknown config keys: {sorted(stray)}")
    for key, value in merged.items():
        if isinstance(value, str) and "\0" in value:
            raise QrpermError(f"{key} contains a NUL byte")
    if merged.get("workers", 1) < 1:
        raise QrpermError(f"workers must be >= 1, got {merged['workers']}")
    if merged.get("exact_cap", 0) < 0:
        raise QrpermError(
            f"exact_cap must be >= 0, got {merged['exact_cap']}")
    return RunConfig(**merged)


def parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.replace(";", ",").split(",")
                if tok.strip()]
    except ValueError:
        raise QrpermError(f"{what} wants a comma separated integer list, "
                          f"got {text!r}") from None
