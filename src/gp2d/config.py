"""Plain-text `key = value` config files for sweep-style runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidGrid, OddSampleCount
from .grid import Grid2D, make_grid
from .minimizer import CRITICALITY_MARGIN, MinimizerOptions, ascending_schedule
from .potentials import PotentialSpec, parse_potential

KNOWN_KEYS = {
    "potential",
    "L",
    "n",
    "a_schedule",
    "tol",
    "max_iters",
    "out_dir",
}


@dataclass
class SweepConfig:
    potential: PotentialSpec
    grid: Grid2D
    a_schedule_raw: str
    opts: MinimizerOptions
    out_dir: str
    raw: dict

    def schedule(self, a_star: float) -> list[float]:
        """Resolve the schedule: absolute comma list or geom:start,ratio,count
        meaning a_k = a* (1 - start * ratio^k).

        An absolute list must be nonempty; minimizer.ascending_schedule
        states the rest.
        """
        text = self.a_schedule_raw.strip()
        if text.startswith("geom:"):
            try:
                start, ratio, count = text[5:].split(",")
                start, ratio, count = float(start), float(ratio), int(count)
            except ValueError as exc:
                raise ConfigError(f"malformed geometric schedule {text!r}") from exc
            if not (0 < start < 1 and 0 < ratio < 1 and count >= 1):
                raise ConfigError(f"geometric schedule out of range: {text!r}")
            # start * ratio^(count - 1) <= margin, in logs so that no count overflows
            if count - 1 >= math.log(CRITICALITY_MARGIN / start) / math.log(ratio):
                raise ConfigError(f"geometric schedule {text!r} ends within the criticality "
                                  "margin of the critical coupling, whatever a* is")
            return [a_star * (1.0 - start * ratio**k) for k in range(count)]
        try:
            values = ascending_schedule(float(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad schedule {text!r}: {exc}") from exc
        if not values:
            raise ConfigError("empty coupling schedule")
        return values


def parse_config_text(text: str) -> SweepConfig:
    kv: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in kv:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kv[key] = val

    for required in ("potential", "L", "n", "a_schedule"):
        if required not in kv:
            raise ConfigError(f"missing required key {required!r}")
    try:
        cfg = SweepConfig(
            potential=parse_potential(kv["potential"]),
            grid=make_grid(float(kv["L"]), int(kv["n"])),
            a_schedule_raw=kv["a_schedule"],
            opts=MinimizerOptions(float(kv.get("tol", 3e-6)),
                                  int(kv.get("max_iters", MinimizerOptions.max_iters))),
            out_dir=kv.get("out_dir", "report"),
            raw=dict(kv),
        )
    except (ValueError, InvalidGrid, OddSampleCount) as exc:
        raise ConfigError(str(exc)) from exc
    # no schedule rule involves a*: check them all before any Townes solve
    cfg.schedule(1.0)
    return cfg


def load_config(path) -> SweepConfig:
    try:
        with open(path, "r") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)
