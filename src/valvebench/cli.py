"""Command-line scenario runner.

Every subcommand reads a plain key=value config (with [section] headers),
applies `--set section.key=value` overrides, runs one end-to-end scenario,
and leaves CSV traces plus a grep-friendly `report.txt` in the output
directory.  Unknown keys are rejected with the offending line number; all
floats are serialized with 9 significant digits so reruns diff cleanly.

Every check runs before any output directory exists; a fan-out over several
presets then runs each one whatever `--parallel` says, with one stderr line
per failed preset.  Exit codes: 0 success, 1 runtime failure inside a scenario
(e.g. a design that cannot place its poles), 2 argument or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import operator
import os
import shutil
import sys
import tempfile
from typing import TYPE_CHECKING, Callable

import numpy as np

# Only what every command needs loads with the module; each plan and job
# imports the layers it runs when it runs, and looks their names up there.
from .errors import ConfigError, ValveBenchError
from .fileio import read_key_values, write_csv, write_report
from .plant import ValveParams, _check_duration, _check_sweep_hold, _substeps

if TYPE_CHECKING:
    from .adapt import EvalScenario
    from .signals import PrbsConfig

_INT_PLANT_FIELDS = ("adc_bits", "pwm_levels", "rng_seed")

# The most samples one run may simulate: a tracking reference (levels x
# hold / Ts), a sweep (2 x levels x hold / Ts), an open-loop PRBS run
# (settle / Ts + periods x PRBS period), a track run (settle / Ts + the
# reference) or an adapt run (settle / Ts + (n_iter + 1) x the reference +
# n_iter x (warmup + excitation length)).  The shipped configs need at most
# 3 166.  Checked by the plan before anything of that length is built.
MAX_REFERENCE_SAMPLES = 10**6
# The most multiply-adds one order scan may take: rows x the sum over its
# cells of (na + nb)^2, the normal matrices it forms.  The default record
# admits scan_max = 45 (9.9e9, about 1.6 s on a 2-vCPU host).
MAX_SCAN_WORK = 10**10


def _check_samples(run: str, n, formula: str) -> None:
    """Raise ConfigError for a run of n samples past MAX_REFERENCE_SAMPLES."""
    if n > MAX_REFERENCE_SAMPLES:
        raise ConfigError(
            f"{run} of {n} samples ({formula}) exceeds the cap of {MAX_REFERENCE_SAMPLES}"
        )


_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


@dataclasses.dataclass(frozen=True)
class Domain:
    """The values a config key accepts: finite, inside `bounds` ((op, limit)
    pairs, op in `_OPS`; two are a lower bound and a closed upper one) and
    among `choices`, or passed by `check`, which raises ValueError worded
    "<key> must be ...".  A list (`each` given) needs one value at least,
    each in the domain `each`."""

    finite: bool = False
    bounds: tuple = ()
    choices: tuple = ()
    check: Callable | None = None
    each: Domain | None = None

    def failure(self, value) -> str | None:
        """The first condition that value fails, as the words after "must be"."""
        if self.each is not None:
            if not value:
                return "at least one value"
            return next(filter(None, map(self.each.failure, value)), None)
        if self.check is not None:
            try:
                self.check(value)
            except ValueError as err:
                return str(err).partition(" must be ")[2] or str(err)
        if self.finite and not math.isfinite(value):
            return "finite"
        if not all(_OPS[op](value, limit) for op, limit in self.bounds):
            (op, lo), *hi = self.bounds
            return f"in {'[' if op == '>=' else '('}{lo}, {hi[0][1]}]" if hi else f"{op} {lo}"
        if self.choices and value not in self.choices:
            return " or ".join(map(repr, self.choices))
        return None


_AT_LEAST_0, _AT_LEAST_1 = Domain(bounds=((">=", 0),)), Domain(bounds=((">=", 1),))
_NON_NEGATIVE = Domain(finite=True, bounds=((">=", 0),))
_POSITIVE = Domain(finite=True, bounds=((">", 0),))
_NON_EMPTY = Domain(each=Domain())


# Each key maps to (kind, default) or (kind, default, Domain).  A key
# without a domain is checked by the layer it is passed to: ValveParams,
# PrbsConfig, ExcitationSpec, PoleSpec, RstDesignSpec, the estimator's
# profile and the smoothing window.
_PLANT_KEYS = {
    "preset": ("strs", ["valve0"], _NON_EMPTY),
    "Ts": ("float", 0.05, Domain(check=_substeps)),
    **{f.name: ("int" if f.name in _INT_PLANT_FIELDS else "float", None)
       for f in dataclasses.fields(ValveParams)},
}
_MODEL_KEYS = {
    "a": ("floats", [-0.9152], _NON_EMPTY),
    "b": ("floats", [-0.0609], _NON_EMPTY),
    "delay": ("int", 0),
}
_DESIGN_KEYS = {
    "mode": ("str", "rst", Domain(choices=("pi", "rst"))),
    "omega0": ("float", 5.0),
    "zeta": ("float", 1.0),
    "auxiliary": ("floats", [1.0]),
    "integrator": ("bool", True),
    "nyquist_zero": ("bool", True),
}
_OPEN_LOOP_EXCITATION = {
    "n_registers": ("int", 9),
    "divider": ("int", 2),
    "offset": ("float", 16.0),
    "amplitude": ("float", 12.0),
    "seed": ("int", 0),
    "settle": ("float", 5.0, _NON_NEGATIVE),
    "periods": ("int", 3, _AT_LEAST_1),
    "analyze_periods": ("int", 2, _AT_LEAST_1),
}
_TRACK_KEYS = {
    "levels": ("floats", [40.0, 65.0, 40.0, 15.0, 40.0], Domain(each=Domain(finite=True))),
    "hold": ("float", 3.0, _NON_NEGATIVE),
    "skip": ("int", 10, _AT_LEAST_0),
}

SCHEMAS: dict[str, dict[str, dict[str, tuple]]] = {
    "sweep": {
        "plant": _PLANT_KEYS,
        "sweep": {
            "u_max": ("float", 40.0, _POSITIVE),
            "step": ("float", 5.0, _POSITIVE),
            "hold": ("float", 2.5),
        },
    },
    "etfe": {
        "plant": _PLANT_KEYS,
        "excitation": _OPEN_LOOP_EXCITATION,
        "spectral": {
            "smooth_window": ("int", 25),
            "slope_lo": ("float", 3.0),
            "slope_hi": ("float", 30.0),
            "plateau_lo": ("float", 0.3),
            "plateau_hi": ("float", 0.8),
        },
    },
    "identify": {
        "plant": _PLANT_KEYS,
        "excitation": _OPEN_LOOP_EXCITATION,
        "identify": {
            "na": ("int", 1, _AT_LEAST_1), "nb": ("int", 1, _AT_LEAST_1), "scan_max": ("int", 3)
        },
    },
    "design": {"model": dict(_MODEL_KEYS, Ts=("float", 0.05)), "design": _DESIGN_KEYS},
    "track": {
        "plant": _PLANT_KEYS, "model": _MODEL_KEYS, "design": _DESIGN_KEYS,
        "track": dict(_TRACK_KEYS, settle=("float", 3.0, _NON_NEGATIVE)),
    },
    "adapt": {
        "plant": _PLANT_KEYS,
        "model": _MODEL_KEYS,
        "design": dict(_DESIGN_KEYS, mode=("str", "rst", Domain(choices=("rst",)))),
        "excitation": {
            "n_registers": ("int", 8),
            "divider": ("int", 4),
            "amplitude": ("float", 10.0),
            "seed": ("int", 0),
            "length": ("int", 300),
        },
        "adapt": {
            "n_iter": ("int", 4, _AT_LEAST_1),
            "operating_reference": ("float", 40.0, Domain(finite=True)),
            "gain": ("float", 1000.0, _POSITIVE),
            "profile": ("str", "variable-forgetting"),
            "lambda0": ("float", 0.97, Domain(bounds=((">", 0), ("<=", 1)))),
            "warmup": ("int", 40, _AT_LEAST_0),
            "settle": ("float", 3.0, _NON_NEGATIVE),
            "stop_tol": ("float", 0.0, _NON_NEGATIVE),
            "traces": ("bool", False),
        },
        "track": _TRACK_KEYS,
    },
}


def _parse_value(kind: str, raw: str, where: str):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            if raw in ("true", "false"):
                return raw == "true"
            raise ValueError("expected true or false")
        if kind == "floats":
            return [float(p) for p in raw.split(",") if p.strip() != ""]
        if kind == "strs":
            return [p.strip() for p in raw.split(",") if p.strip() != ""]
        return raw  # str
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def resolve_config(command: str, entries, overrides) -> dict[str, dict[str, object]]:
    """Defaults + config file + --set overrides, each key parsed as its kind
    and the resolved value checked against its domain."""
    schema = SCHEMAS[command]
    cfg = {sec: {k: spec[1] for k, spec in keys.items()} for sec, keys in schema.items()}

    def apply(section, key, raw, line):
        where = f"line {line}" if line is not None else f"override {section}.{key}"
        if section not in schema:
            raise ConfigError(
                f"{where}: unknown section [{section}] for subcommand '{command}'"
            )
        if key not in schema[section]:
            raise ConfigError(
                f"{where}: unknown key '{key}' in [{section}] for subcommand '{command}'"
            )
        kind = schema[section][key][0]
        cfg[section][key] = _parse_value(kind, raw, f"{where}: key '{key}'")

    for e in entries:
        if not e.section:
            raise ConfigError(f"line {e.line}: key '{e.key}' appears before any [section]")
        apply(e.section, e.key, e.value, e.line)
    for section, key, raw in overrides:
        apply(section, key, raw, None)
    for section, keys in schema.items():
        for key, (_, _, *domain) in keys.items():
            value = cfg[section][key]
            failure = domain and domain[0].failure(value)
            if failure:
                raise ConfigError(f"{section} {key} must be {failure} (got {value!r})")
    return cfg


def parse_set_args(pairs) -> list[tuple[str, str, str]]:
    out = []
    for p in pairs:
        head, eq, value = p.partition("=")
        section, dot, key = head.partition(".")
        if not eq or not dot or not section or not key:
            raise ConfigError(f"override '{p}' must look like section.key=value")
        out.append((section, key, value.strip()))
    return out


def build_valve_params(plant_cfg: dict, preset: str, seed: int | None) -> ValveParams:
    from .presets import get_preset

    params = get_preset(preset)
    changes = {
        f.name: plant_cfg[f.name]
        for f in dataclasses.fields(ValveParams)
        if plant_cfg.get(f.name) is not None
    }
    if seed is not None:
        changes["rng_seed"] = seed
    try:
        return dataclasses.replace(params, **changes)
    except ValueError as err:
        raise ConfigError(f"invalid plant parameters: {err}") from None


def _check_references(cfg: dict, params: ValveParams) -> None:
    """Raise ConfigError for a track level or an adapt operating reference
    outside the plant's [angle_min, angle_max]: the plate cannot leave its
    stops, so no such reference can be tracked."""
    lo, hi = params.angle_min, params.angle_max
    refs = [("track levels", v) for v in cfg["track"]["levels"]] if "track" in cfg else []
    if "adapt" in cfg:
        refs.append(("adapt operating_reference", cfg["adapt"]["operating_reference"]))
    for name, v in refs:
        if not lo <= v <= hi:
            raise ConfigError(
                f"{name} must lie in the plant's angle range [{lo!r}, {hi!r}] (got {v!r})"
            )


def _prbs_from_cfg(exc: dict, Ts: float) -> PrbsConfig:
    """The PRBS of an open-loop run, with the run's settle duration checked
    and its samples counted against MAX_REFERENCE_SAMPLES."""
    from .signals import PrbsConfig

    _check_duration("excitation settle", exc["settle"], Ts)
    if exc["analyze_periods"] > exc["periods"]:
        raise ConfigError(f"excitation analyze_periods must be <= periods = {exc['periods']} "
                          f"(got {exc['analyze_periods']})")
    prbs = PrbsConfig(**{k: exc[k] for k in ("n_registers", "divider", "seed", "offset", "amplitude")})
    n = round(exc["settle"] / Ts) + exc["periods"] * prbs.period
    _check_samples("open-loop run", n, "settle / Ts + periods x PRBS period")
    return prbs


def open_loop_record(params: ValveParams, Ts: float, exc: dict, prbs: PrbsConfig):
    """Settle at the excitation offset, then record a multi-period PRBS run: (u, y) of the PRBS."""
    from .plant import ValveSimulator, open_loop
    from .signals import prbs_generate

    sim = ValveSimulator(params, Ts)
    for _ in range(int(round(exc["settle"] / Ts))):
        sim.advance(exc["offset"])
    u = prbs_generate(prbs, exc["periods"] * prbs.period)
    return u, open_loop(sim, u)


def _analysis_window(u, y, period: int, analyze_periods: int):
    n = analyze_periods * period
    u_w, y_w = u[-n:], y[-n:]
    return u_w - u_w.mean(), y_w - y_w.mean()


def _design_from_cfg(cfg: dict, Ts: float):
    """The [model] and [design] sections as (design spec, model estimate
    [a1..a_na, b1..b_nb], controller designed on that estimate)."""
    from .adapt import RstDesignSpec
    from .control import HR_NYQUIST_ZERO, HS_INTEGRATOR, ONE, DelayPolynomial, PoleSpec
    from .control import check_pole_placement, pi_design

    model_cfg, design_cfg = cfg["model"], cfg["design"]
    a, b = model_cfg["a"], model_cfg["b"]
    auxiliary = DelayPolynomial(tuple(design_cfg["auxiliary"]))
    pole = PoleSpec(design_cfg["omega0"], design_cfg["zeta"], Ts, auxiliary)
    spec = RstDesignSpec(
        pole, na=len(a), nb=len(b), delay=model_cfg["delay"],
        hs=HS_INTEGRATOR if design_cfg["integrator"] else ONE,
        hr=HR_NYQUIST_ZERO if design_cfg["nyquist_zero"] else ONE,
    )
    theta = np.array(a + b, dtype=float)
    if design_cfg["mode"] == "rst":
        return spec, theta, spec.design(theta)
    model = spec.model_from(theta)
    if model.na != 1 or model.nb != 1 or model.delay != 0:
        raise ConfigError("pi mode needs a first-order model without delay")
    controller = pi_design(model.a_coeffs[0], model.b_coeffs[0], spec.target, Ts=Ts)
    check_pole_placement(model, controller, spec.target)
    return spec, theta, controller


# ---------------------------------------------------------------------------
# Subcommands.  plan_<cmd>(cfg) makes every check that no preset changes and returns
# the job, run_<cmd> bound to what it built: job(out_dir, preset, params) -> report items.
# A check on the input fails in the plan (exit 2); a job that fails has failed to run
# (exit 1).


def plan_sweep(cfg):
    sw, Ts = cfg["sweep"], cfg["plant"]["Ts"]
    u_max, step = sw["u_max"], sw["step"]
    _check_sweep_hold(sw["hold"], Ts)
    # The length of the arange below, ceil(stop / step), counted before it
    # is built.  From 2**53 on every float is whole, so a count that large
    # stays a float (inf where it overflows).
    n_levels = (u_max + step / 2) / step
    if n_levels < 2**53:
        n_levels = math.ceil(n_levels)
    if n_levels < 2:
        raise ConfigError(
            f"a sweep needs at least 2 levels for its static gains, and u_max = {u_max!r} at "
            f"step = {step!r} gives {n_levels}"
        )
    _check_samples("sweep", 2 * n_levels * round(sw["hold"] / Ts), "2 x levels x hold / Ts")
    # The arange's top level is 0.0 + (levels - 1) x step; the valve clamps
    # a duty past 100 %, which would put flat points into the gain fit.
    top = step * (n_levels - 1)
    if top > 100.0:
        raise ConfigError(
            f"the sweep's top level, step x (levels - 1) = {top!r} % duty, exceeds 100 % "
            f"(u_max = {u_max!r}, step = {step!r})"
        )
    levels = np.arange(0.0, u_max + step / 2, step)
    return functools.partial(run_sweep, cfg, levels)


def run_sweep(cfg, levels, out_dir, preset, params):
    from .plant import static_sweep

    hmap = static_sweep(params, levels, hold=cfg["sweep"]["hold"], Ts=cfg["plant"]["Ts"])
    write_csv(
        os.path.join(out_dir, "sweep.csv"),
        ["u_pct", "angle_up_deg", "angle_down_deg"],
        [hmap.levels, hmap.angle_up, hmap.angle_down],
    )
    gain_up = float(np.polyfit(hmap.levels, hmap.angle_up, 1)[0])
    gain_down = float(np.polyfit(hmap.levels, hmap.angle_down, 1)[0])
    return [
        ("preset", preset),
        ("hysteresis_width_deg", hmap.width),
        ("static_gain_up_deg_per_pct", gain_up),
        ("static_gain_down_deg_per_pct", gain_down),
    ]


def plan_etfe(cfg):
    from .spectral import _MIN_FIT_BINS, _check_band, _check_smooth_size, _harmonic_bins, _in_band

    sp = cfg["spectral"]
    slope_band, plateau_band = (sp["slope_lo"], sp["slope_hi"]), (sp["plateau_lo"], sp["plateau_hi"])
    _check_smooth_size(sp["smooth_window"])
    _check_band(slope_band)
    if sp["plateau_lo"] > sp["plateau_hi"]:
        raise ConfigError("spectral plateau_lo must not exceed plateau_hi")
    Ts = cfg["plant"]["Ts"]
    prbs = _prbs_from_cfg(cfg["excitation"], Ts)
    # The job's ETFE keeps only the bins the PRBS excites, so a band short
    # of them fails its fit whatever the plant does, and so does a smoothing
    # window wider than them.
    bins = _harmonic_bins(prbs.period, prbs.bit_period, cfg["excitation"]["analyze_periods"], Ts)
    if sp["smooth_window"] > len(bins):
        raise ConfigError(f"spectral smooth_window must be <= the {len(bins)} bins of the ETFE "
                          f"(got {sp['smooth_window']})")
    if prbs.amplitude == 0:  # a constant input excites no bin
        bins = bins[:0]
    in_slope = int(_in_band(bins, slope_band).sum())
    if in_slope < _MIN_FIT_BINS:
        raise ConfigError(
            f"the slope fit needs at least {_MIN_FIT_BINS} bins in the band, and the PRBS excites "
            f"{in_slope} in [{slope_band[0]}, {slope_band[1]}] rad/s"
        )
    if not _in_band(bins, plateau_band).any():
        raise ConfigError(
            f"the PRBS excites no bin in the plateau band [{plateau_band[0]}, {plateau_band[1]}] rad/s"
        )
    return functools.partial(run_etfe, cfg, prbs)


def run_etfe(cfg, prbs, out_dir, preset, params):
    from .spectral import corner_from_asymptotes, etfe, save_response_csv, slope_fit, smooth

    Ts = cfg["plant"]["Ts"]
    exc = cfg["excitation"]
    sp = cfg["spectral"]
    u, y = open_loop_record(params, Ts, exc, prbs)
    write_csv(
        os.path.join(out_dir, "excitation.csv"),
        ["t", "u_pct", "angle_deg"],
        [np.arange(len(u)), u, y],
    )
    u_d, y_d = _analysis_window(u, y, prbs.period, exc["analyze_periods"])
    raw = etfe(u_d, y_d, Ts)
    smoothed = smooth(raw, size=sp["smooth_window"])
    save_response_csv(os.path.join(out_dir, "etfe_raw.csv"), raw)
    save_response_csv(os.path.join(out_dir, "etfe_smooth.csv"), smoothed)
    slope = slope_fit(smoothed, (sp["slope_lo"], sp["slope_hi"]))
    corner = corner_from_asymptotes(
        smoothed, (sp["plateau_lo"], sp["plateau_hi"]), (sp["slope_lo"], sp["slope_hi"])
    )
    return [
        ("preset", preset),
        ("n_bins", len(raw.frequencies)),
        ("longest_pulse_s", prbs.longest_pulse(Ts)),
        ("slope_db_per_decade", slope),
        ("corner_rad_s", corner),
    ]


def plan_identify(cfg):
    idf, exc = cfg["identify"], cfg["excitation"]
    n = idf["scan_max"]
    if n < max(idf["na"], idf["nb"]):
        raise ConfigError("scan_max must cover the chosen na and nb")
    prbs = _prbs_from_cfg(exc, cfg["plant"]["Ts"])
    if prbs.amplitude == 0:  # a constant input leaves the ARX fit singular
        raise ConfigError("identify needs a PRBS amplitude > 0: a constant input excites nothing to fit")
    # Each cell's normal matrix takes rows x (na + nb)^2 multiply-adds; over
    # na, nb = 1..n the squares sum to 2 n sum(i^2) + 2 sum(i)^2.
    rows = max(0, exc["analyze_periods"] * prbs.period - n)
    work = rows * (n * n * (n + 1) * (2 * n + 1) // 3 + (n * (n + 1)) ** 2 // 2)
    if work > MAX_SCAN_WORK:
        raise ConfigError(f"order scan of {work} multiply-adds (rows x the sum of (na + nb)^2 over "
                          f"na, nb = 1..scan_max) exceeds the cap of {MAX_SCAN_WORK}")
    if rows < 2 * n:
        raise ConfigError(f"order scan of {rows} rows (analyze_periods x PRBS period - scan_max) "
                          f"cannot determine the {2 * n} parameters of its largest cell")
    return functools.partial(run_identify, cfg, prbs)


def run_identify(cfg, prbs, out_dir, preset, params):
    from .ident import arx_least_squares, order_scan

    idf = cfg["identify"]
    u, y = open_loop_record(params, cfg["plant"]["Ts"], cfg["excitation"], prbs)
    u_d, y_d = _analysis_window(u, y, prbs.period, cfg["excitation"]["analyze_periods"])
    write_csv(
        os.path.join(out_dir, "data.csv"),
        ["t", "u_dev_pct", "angle_dev_deg"],
        [np.arange(len(u_d)), u_d, y_d],
    )
    orders = range(1, idf["scan_max"] + 1)
    table = order_scan(u_d, y_d, orders, orders)
    write_csv(
        os.path.join(out_dir, "orders.csv"),
        ["na", "nb", "cost"],
        [
            [k[0] for k in table],
            [k[1] for k in table],
            [table[k] for k in table],
        ],
    )
    theta, cost = arx_least_squares(u_d, y_d, idf["na"], idf["nb"])
    items = [("preset", preset), ("na", idf["na"]), ("nb", idf["nb"])]
    items += [(f"theta_{i + 1}", float(v)) for i, v in enumerate(theta)]
    items += [("cost", cost)]
    return items


def plan_design(cfg):
    return functools.partial(run_design, cfg, *_design_from_cfg(cfg, cfg["model"]["Ts"]))


def run_design(cfg, spec, theta, controller, out_dir, preset, params):
    from .control import controller_to_text, sensitivity

    del preset, params  # pure computation, no plant involved
    model = spec.model_from(theta)
    with open(os.path.join(out_dir, "controller.txt"), "w") as fh:
        fh.write(controller_to_text(controller))
    analysis = sensitivity(model, controller)
    write_csv(
        os.path.join(out_dir, "sensitivity.csv"),
        ["omega_rad_s", "syp_db", "sup_db"],
        [analysis.omegas, analysis.syp_db, analysis.sup_db],
    )
    items = [("mode", cfg["design"]["mode"])]
    items += [(f"p{i}", float(c)) for i, c in enumerate(spec.target.coeffs) if i > 0]
    items += [(f"r{i}", float(c)) for i, c in enumerate(controller.r.coeffs)]
    items += [(f"s{i}", float(c)) for i, c in enumerate(controller.s.coeffs)]
    items += [
        ("t_gain", float(controller.t(1.0))),
        ("max_syp_db", analysis.max_syp_db),
        ("modulus_margin", analysis.modulus_margin),
        ("margin_db", analysis.margin_db),
        ("sup_at_nyquist_db", analysis.sup_db_at_nyquist),
    ]
    return items


def _settle_samples(name: str, seconds: float, Ts: float) -> int:
    """The samples of a settle (`adapt._settle`: one at least), its duration checked."""
    _check_duration(name, seconds, Ts)
    return max(1, round(seconds / Ts))


def _scenario_from_cfg(tr: dict, Ts: float) -> tuple[EvalScenario, np.ndarray]:
    """The evaluation staircase and its reference, with its length, levels x
    hold / Ts, checked against MAX_REFERENCE_SAMPLES before it is built and
    skip checked against that length before any closed loop runs."""
    from .adapt import EvalScenario

    _check_duration("track hold", tr["hold"], Ts)
    _check_samples("track reference", len(tr["levels"]) * round(tr["hold"] / Ts), "levels x hold / Ts")
    scenario = EvalScenario(levels=tuple(tr["levels"]), hold=tr["hold"], skip=tr["skip"])
    reference = scenario.reference(Ts)
    if scenario.skip >= len(reference):
        raise ConfigError(f"track skip must be < the {len(reference)} samples of the reference "
                          f"(got {scenario.skip})")
    return scenario, reference


def plan_track(cfg):
    Ts, tr = cfg["plant"]["Ts"], cfg["track"]
    _, reference = _scenario_from_cfg(tr, Ts)
    n = _settle_samples("track settle", tr["settle"], Ts) + len(reference)
    _check_samples("track run", n, "settle / Ts + levels x hold / Ts")
    _, _, controller = _design_from_cfg(cfg, Ts)
    return functools.partial(run_track, cfg, reference, controller)


def run_track(cfg, reference, controller, out_dir, preset, params):
    from .adapt import _settle, tracking_cost, tracking_run
    from .plant import ValveSimulator

    tr = cfg["track"]
    sim = ValveSimulator(params, cfg["plant"]["Ts"])
    y_s, u_s = _settle(sim, controller, reference[0], tr["settle"])
    y, u, sat = tracking_run(
        sim, controller, reference, u0=float(u_s[-1]), y0=float(y_s[-1])
    )
    write_csv(
        os.path.join(out_dir, "track.csv"),
        ["t", "r_deg", "angle_deg", "u_pct", "saturated"],
        [np.arange(len(y)), reference, y, u, sat],
    )
    return [
        ("preset", preset),
        ("tracking_cost_deg2", tracking_cost(y, reference, tr["skip"])),
        ("saturation_fraction", float(np.mean(sat))),
    ]


def plan_adapt(cfg):
    from .adapt import ExcitationSpec
    from .ident import initial_adaptation_state

    Ts, ad = cfg["plant"]["Ts"], cfg["adapt"]
    scenario, reference = _scenario_from_cfg(cfg["track"], Ts)
    n = _settle_samples("adapt settle", ad["settle"], Ts) + (ad["n_iter"] + 1) * len(reference)
    n += ad["n_iter"] * (ad["warmup"] + cfg["excitation"]["length"])
    _check_samples("adapt run", n, "settle / Ts + (n_iter + 1) x levels x hold / Ts + n_iter x "
                   "(warmup + excitation length)")
    # the estimator checks its own settings, the profile among them
    n_params = len(cfg["model"]["a"]) + len(cfg["model"]["b"])
    initial_adaptation_state(n_params, ad["gain"], ad["profile"], ad["lambda0"])
    designed = _design_from_cfg(cfg, Ts)
    return functools.partial(run_adapt, cfg, scenario, *designed, ExcitationSpec(**cfg["excitation"]))


def run_adapt(cfg, scenario, design, theta0, initial, excitation, out_dir, preset, params):
    from .adapt import iterate, save_iteration_csv
    from .plant import ValveSimulator

    ad = cfg["adapt"]
    sim = ValveSimulator(params, cfg["plant"]["Ts"])
    records = iterate(
        sim, initial, design, excitation, scenario, ad["n_iter"], theta0,
        operating_reference=ad["operating_reference"], adaptation_gain=ad["gain"],
        profile=ad["profile"], lambda0=ad["lambda0"], warmup=ad["warmup"], settle=ad["settle"],
        stop_tol=ad["stop_tol"] or None,
        trace_dir=out_dir if ad["traces"] else None,
    )
    save_iteration_csv(os.path.join(out_dir, "iterations.csv"), records)
    failures = sum(1 for r in records if r.redesign_error is not None)
    items = [("preset", preset), ("iterations", len(records) - 1)]
    items += [(f"cost_iter_{r.iteration}", r.tracking_cost) for r in records]
    final = records[-1]
    items += [(f"theta_{i + 1}", float(v)) for i, v in enumerate(final.theta_hat)]
    return items + [("final_margin_db", final.margin_db), ("redesign_failures", failures)]


PLANS = {
    "sweep": plan_sweep,
    "etfe": plan_etfe,
    "identify": plan_identify,
    "design": plan_design,
    "track": plan_track,
    "adapt": plan_adapt,
}


def _missing_dirs(path: str) -> list[str]:
    """The directories that os.makedirs(path) would create, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _remove_empty(dirs) -> None:
    for path in dirs:
        try:
            os.rmdir(path)
        except OSError:  # not empty: another run's output lives there
            pass


def _error_line(err: Exception) -> str:
    """The one line that reports an error: the message of the workbench's own
    errors and of a ValueError, any other error's type name before its message."""
    message = str(err)
    if message and isinstance(err, (ValveBenchError, ValueError)):
        return message
    return f"{type(err).__name__}: {message}" if message else type(err).__name__


def _execute(job, out_dir: str, preset, params):
    """Run one job in a staging directory inside out_dir (so that the renames stay
    on one filesystem even when out_dir is a mount point), move its files up once it
    has succeeded, remove the staging directory (one rmdir when empty, as after a
    success), and return the error of a failed job: for any exception it raises, a
    ConfigError (exit 2) or a ValveBenchError (exit 1) with its line
    (:func:`_error_line`), which a worker process can always send back."""
    staging = tempfile.mkdtemp(prefix=".valvebench-", dir=out_dir)
    try:
        write_report(os.path.join(staging, "report.txt"), job(staging, preset, params))
        for name in os.listdir(staging):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    except Exception as err:
        kind = ConfigError if isinstance(err, ConfigError) else ValveBenchError
        return kind(_error_line(err))
    finally:
        try:  # empty once every file has moved
            os.rmdir(staging)
        except OSError:
            shutil.rmtree(staging, ignore_errors=True)


def _run(job, presets: list, plants: list, out: str, parallel: int) -> list:
    """Run the job for every preset, into out for one or into out/<preset> for
    several, in-process or in up to `parallel` workers; return (preset, error)
    per failed job.  The output directories and missing parents of out are made
    here, before any job, and removed if still empty once all have ended."""
    dirs = [out] if len(presets) == 1 else [os.path.join(out, p) for p in presets]
    # a path is longer than its parents: longest first removes children first
    created = sorted({m for d in dirs for m in _missing_dirs(d)}, key=len, reverse=True)
    for d in dirs:
        os.makedirs(d, exist_ok=True)
    try:
        if parallel > 1 and len(dirs) > 1:
            import concurrent.futures

            # leaving the pool waits for every submitted job
            with concurrent.futures.ProcessPoolExecutor(parallel) as pool:
                errors = list(pool.map(_execute, [job] * len(dirs), dirs, presets, plants))
        else:
            errors = list(map(_execute, [job] * len(dirs), dirs, presets, plants))
    finally:
        _remove_empty(created)
    return [(p, err) for p, err in zip(presets, errors) if err is not None]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and each call of :func:`main` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="valvebench",
        description="Valve identification and adaptive-control scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "sweep": "static hysteresis sweep of a valve preset",
        "etfe": "PRBS excitation and spectral estimate",
        "identify": "open-loop batch identification with order scan",
        "design": "PI or robust RST design with sensitivity analysis",
        "track": "closed-loop staircase tracking evaluation",
        "adapt": "iterative closed-loop identification and re-design",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="key=value config file with [section] headers")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
        p.add_argument("--seed", type=int, help="override the plant noise seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument(
            "--parallel",
            type=int,
            default=1,
            metavar="N",
            help="workers for multi-preset runs (default: 1)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    preset = None
    try:
        entries = read_key_values(args.config) if args.config else []
        overrides = parse_set_args(args.set)
        cfg = resolve_config(args.command, entries, overrides)
        if args.parallel < 1:
            raise ConfigError("--parallel must be >= 1")
        presets = cfg["plant"]["preset"] if "plant" in cfg else [None]
        job = PLANS[args.command](cfg)
        plants = []
        for preset in presets:  # the only checks that depend on the preset; a failure names it
            params = preset and build_valve_params(cfg["plant"], preset, args.seed)
            if params:
                _check_references(cfg, params)
            plants.append(params)
        failures = _run(job, presets, plants, args.out, args.parallel)
        codes = [2 if isinstance(e, ConfigError) else 1 for _, e in failures]
    except (ValveBenchError, ValueError) as err:  # the input, before any job ran
        failures = [(preset, err)]
        codes = [2 if isinstance(err, (ConfigError, ValueError)) else 1]
    for (preset, err), code in zip(failures, codes):  # exit 2 for bad input, 1 for a failed run
        where = f" ({preset})" if preset and len(presets) > 1 else ""
        line = _error_line(err)
        print(f"valvebench {args.command}{' failed' * (code == 1)}: {line}{where}", file=sys.stderr)
    return max(codes, default=0)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
