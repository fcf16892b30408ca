"""Plain-text `key = value` config files for sweep-style runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .potentials import PotentialSpec, parse_potential

KNOWN_KEYS = {
    "potential",
    "L",
    "n",
    "a_schedule",
    "tol",
    "max_iters",
    "out_dir",
    "box_check",
}


@dataclass
class SweepConfig:
    potential: PotentialSpec
    L: float
    n: int
    a_schedule_raw: str
    tol: float = 3e-6
    max_iters: int = 20000
    out_dir: str = "report"
    box_check: bool = False
    raw: dict = field(default_factory=dict)

    def schedule(self, a_star: float) -> list[float]:
        """Resolve the schedule: absolute comma list or geom:start,ratio,count
        meaning a_k = a* (1 - start * ratio^k)."""
        text = self.a_schedule_raw.strip()
        if text.startswith("geom:"):
            try:
                start, ratio, count = text[5:].split(",")
                start, ratio, count = float(start), float(ratio), int(count)
            except ValueError as exc:
                raise ConfigError(f"malformed geometric schedule {text!r}") from exc
            if not (0 < start < 1 and 0 < ratio < 1 and count >= 1):
                raise ConfigError(f"geometric schedule out of range: {text!r}")
            return [a_star * (1.0 - start * ratio**k) for k in range(count)]
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"malformed schedule {text!r}") from exc
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
            L=float(kv["L"]),
            n=int(kv["n"]),
            a_schedule_raw=kv["a_schedule"],
            tol=float(kv.get("tol", 3e-6)),
            max_iters=int(kv.get("max_iters", 20000)),
            out_dir=kv.get("out_dir", "report"),
            box_check=_parse_bool(kv.get("box_check", "off")),
            raw=dict(kv),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.L <= 0 or cfg.n < 16 or cfg.n % 2:
        raise ConfigError(f"bad grid parameters L={cfg.L}, n={cfg.n}")
    return cfg


def _parse_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("on", "true", "1", "yes"):
        return True
    if val in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"expected on/off, got {text!r}")


def load_config(path) -> SweepConfig:
    try:
        with open(path, "r") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)
