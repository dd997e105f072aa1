"""End-to-end subcommand runs, config resolution, and exit codes."""

import errno
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from valvebench import adapt, cli, plant, spectral
from valvebench.cli import main, parse_set_args, resolve_config
from valvebench.errors import ConfigError, DivergenceError
from valvebench.fileio import parse_key_values, read_key_values
from valvebench.presets import get_preset

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def parse_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_resolve_config_defaults():
    cfg = resolve_config("design", [], [])
    assert cfg["design"]["omega0"] == 5.0
    assert cfg["model"]["a"] == [-0.9152]
    assert cfg["design"]["integrator"] is True


def test_resolve_config_precedence():
    entries = parse_key_values("[design]\nomega0 = 8.0\nzeta = 0.7\n")
    overrides = parse_set_args(["design.omega0=9.5"])
    cfg = resolve_config("design", entries, overrides)
    assert cfg["design"]["omega0"] == 9.5  # --set wins over the file
    assert cfg["design"]["zeta"] == 0.7


def test_resolve_config_rejects_unknown_names():
    with pytest.raises(ConfigError) as exc:
        resolve_config("design", parse_key_values("[nope]\nx = 1\n"), [])
    # the entry that failed to resolve is the key line, not the header
    assert "line 2" in str(exc.value)
    assert "[nope]" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        resolve_config("design", [], [("design", "nope", "1")])
    assert "override design.nope" in str(exc.value)
    with pytest.raises(ConfigError):
        resolve_config("design", parse_key_values("omega0 = 5\n"), [])


def test_resolve_config_value_types():
    with pytest.raises(ConfigError):
        resolve_config("design", [], [("design", "omega0", "fast")])
    with pytest.raises(ConfigError):
        resolve_config("design", [], [("design", "integrator", "yes")])
    cfg = resolve_config("design", [], [("model", "a", "-1.1,0.3")])
    assert cfg["model"]["a"] == [-1.1, 0.3]


def test_parse_set_args():
    assert parse_set_args(["design.omega0=5"]) == [("design", "omega0", "5")]
    for bad in ("noequals", "nodot=5", ".key=5", "sec.=5"):
        with pytest.raises(ConfigError):
            parse_set_args([bad])


def test_parser_is_built_once_and_keeps_no_state_between_runs(tmp_path, monkeypatch):
    """The cached parser hands each run a fresh namespace: a run after one
    with --config and --set resolves the plain defaults (argparse copies
    the `append` default rather than growing it)."""
    assert cli.build_parser() is cli.build_parser()
    resolved = []

    def recording(command, entries, overrides):
        cfg = resolve_config(command, entries, overrides)
        resolved.append((list(entries), list(overrides), cfg))
        return cfg

    monkeypatch.setattr(cli, "resolve_config", recording)
    config = tmp_path / "design.cfg"
    config.write_text("[design]\nzeta = 0.8\n")
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["design", "--config", str(config), "--set", "design.omega0=7", "--out", str(first)]
    assert main(argv) == 0
    assert main(["design", "--out", str(second)]) == 0
    assert resolved[0][2]["design"]["zeta"] == 0.8
    assert resolved[0][2]["design"]["omega0"] == 7.0
    assert resolved[1] == ([], [], resolve_config("design", [], []))
    assert parse_report(second / "report.txt") != parse_report(first / "report.txt")
    assert cli.build_parser().parse_args(["design"]).set == []


# A fresh interpreter that lists the valvebench modules loaded after
# `import valvebench`, then after one CLI run; argv: src dir, command, out dir.
IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import valvebench
after_import = sorted(m for m in sys.modules if m.startswith("valvebench."))
rc = valvebench.cli.main([sys.argv[2], "--out", sys.argv[3]])
print(json.dumps([after_import, rc, sorted(sys.modules)]))
"""
SRC = str(Path(cli.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "command, absent",
    [
        ("sweep", ["control", "adapt", "cloe", "ident", "_kernels", "spectral"]),
        ("etfe", ["control", "adapt", "cloe"]),
        ("identify", ["control", "adapt", "cloe"]),
    ],
)
def test_a_command_loads_only_the_layers_it_runs(tmp_path, command, absent):
    """`import valvebench` loads no layer module, and an open-loop command
    loads no design or adaptation layer; a single-preset run no process pool."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, command, str(tmp_path / "out")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    after_import, rc, loaded = json.loads(probe.stdout)
    assert after_import == []
    assert rc == 0
    assert "valvebench.plant" in loaded
    assert [m for m in loaded if m.removeprefix("valvebench.") in absent] == []
    assert "concurrent.futures" not in loaded


def test_design_loads_no_random_generator(tmp_path):
    """`design` simulates nothing, so it loads neither the presets nor
    numpy.random, from which the presets draw their parameters."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, "design", str(tmp_path / "out")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    _, rc, loaded = json.loads(probe.stdout)
    assert rc == 0
    assert "numpy.random" not in loaded and "valvebench.presets" not in loaded


def test_design_pi_report_matches_hand_formula(tmp_path):
    rc = main(["design", "--out", str(tmp_path), "--set", "design.mode=pi"])
    assert rc == 0
    report = parse_report(tmp_path / "report.txt")
    assert report["mode"] == "pi"
    z1 = math.exp(-5.0 * 0.05)
    p1, p2 = -2.0 * z1, z1 * z1
    a1, b1 = -0.9152, -0.0609
    assert float(report["p1"]) == pytest.approx(p1, rel=1e-8)
    assert float(report["p2"]) == pytest.approx(p2, rel=1e-8)
    assert float(report["r0"]) == pytest.approx((p1 - a1 + 1.0) / b1, rel=1e-6)
    assert float(report["r1"]) == pytest.approx((p2 + a1) / b1, rel=1e-6)
    assert float(report["t_gain"]) == pytest.approx(
        (p1 - a1 + 1.0) / b1 + (p2 + a1) / b1, rel=1e-6
    )
    assert (tmp_path / "controller.txt").exists()
    assert (tmp_path / "sensitivity.csv").exists()


def test_design_rst_report(tmp_path):
    rc = main(["design", "--out", str(tmp_path)])
    assert rc == 0
    report = parse_report(tmp_path / "report.txt")
    assert report["mode"] == "rst"
    assert {"r0", "r1", "r2", "s0", "s1", "s2"} <= set(report)
    assert float(report["max_syp_db"]) < 6.0
    # the Nyquist zero in R opens the loop at 0.5 fs
    assert float(report["sup_at_nyquist_db"]) == -400.0


def test_track_runs_quickly(tmp_path):
    rc = main(
        [
            "track",
            "--out",
            str(tmp_path),
            "--set",
            "track.levels=40,50",
            "--set",
            "track.hold=1.0",
            "--set",
            "track.settle=1.0",
        ]
    )
    assert rc == 0
    report = parse_report(tmp_path / "report.txt")
    assert report["preset"] == "valve0"
    assert float(report["tracking_cost_deg2"]) >= 0.0
    assert 0.0 <= float(report["saturation_fraction"]) <= 1.0
    header = (tmp_path / "track.csv").read_text().splitlines()[0]
    assert header == "t,r_deg,angle_deg,u_pct,saturated"


def test_identify_runs_quickly(tmp_path):
    rc = main(
        [
            "identify",
            "--out",
            str(tmp_path),
            "--set",
            "excitation.n_registers=5",
            "--set",
            "excitation.divider=1",
            "--set",
            "excitation.periods=2",
            "--set",
            "excitation.analyze_periods=1",
            "--set",
            "excitation.settle=1.0",
            "--set",
            "identify.scan_max=2",
        ]
    )
    assert rc == 0
    report = parse_report(tmp_path / "report.txt")
    assert {"theta_1", "theta_2", "cost"} <= set(report)
    assert float(report["cost"]) >= 0.0
    assert (tmp_path / "data.csv").exists()
    assert (tmp_path / "orders.csv").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ("identify.na=0", "identify na must be >= 1 (got 0)"),
        ("identify.scan_max=0", "scan_max must cover the chosen na and nb"),
    ],
)
def test_identify_orders_are_rejected_before_any_simulation(
    tmp_path, capsys, monkeypatch, override, message
):
    def never(*args, **kwargs):
        raise AssertionError("the valve record was simulated before the orders were checked")

    monkeypatch.setattr(cli, "open_loop_record", never)
    assert main(["identify", "--out", str(tmp_path / "out"), "--set", override]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_codes(tmp_path, capsys):
    assert main(["sweep", "--out", str(tmp_path), "--set", "plant.preset=valveX"]) == 2
    assert "valvebench sweep:" in capsys.readouterr().err

    rc = main(
        [
            "design",
            "--out",
            str(tmp_path),
            "--set",
            "design.mode=pi",
            "--set",
            "model.a=-1.1,0.3",
        ]
    )
    assert rc == 2

    rc = main(["design", "--out", str(tmp_path), "--set", "model.b=0.0"])
    assert rc == 1
    assert "valvebench design failed:" in capsys.readouterr().err

    assert main(["etfe", "--out", str(tmp_path), "--set", "excitation.periods=0"]) == 2
    assert main(["sweep", "--out", str(tmp_path), "--set", "plant.preset="]) == 2
    assert main(["sweep", "--out", str(tmp_path), "--parallel", "0"]) == 2


def test_numerical_failure_mid_run_exits_1(tmp_path, capsys):
    """A PI design on a gain of -1e-307 passes every check of the input, and
    its loop computes a non-finite duty cycle: a failed run, not bad input."""
    out = tmp_path / "out"
    rc = main(["track", "--out", str(out), "--set", "design.mode=pi", "--set", "model.b=-1e-307"])
    assert rc == 1
    assert "valvebench track failed: duty cycle must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_plain_value_error_mid_run_is_a_run_failure(tmp_path, capsys, monkeypatch):
    """A job that raises a plain ValueError after writing some of its files
    exits 1 and leaves no partial output."""
    def failing_fit(*args, **kwargs):
        raise ValueError("fit failed")

    monkeypatch.setattr(spectral, "slope_fit", failing_fit)
    out = tmp_path / "out"
    assert main(["etfe", "--out", str(out)]) == 1
    assert "valvebench etfe failed: fit failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("sweep", "sweep.hold=1.0", "hold must be >= 2.5 s"),
        ("sweep", "plant.Ts=0.0015", "integer multiple of the 1 ms sub-step"),
        ("etfe", "spectral.smooth_window=4", "smoothing size must be odd"),
        ("etfe", "spectral.slope_lo=40", "band must satisfy 0 < lo < hi"),
        ("etfe", "spectral.plateau_lo=2.0", "plateau_lo must not exceed plateau_hi"),
        ("etfe", "spectral.slope_lo=3 spectral.slope_hi=3.1", "PRBS excites 1 in [3.0, 3.1] rad/s"),
        ("etfe", "spectral.plateau_lo=0.01 spectral.plateau_hi=0.02", "no bin in the plateau band"),
        ("identify", "plant.Ts=0", "Ts must be > 0"),
        ("identify", "excitation.amplitude=0", "identify needs a PRBS amplitude > 0"),
        ("track", "plant.Ts=0.0025", "integer multiple of the 1 ms sub-step"),
        ("sweep", "plant.Ts=inf", "Ts must be a finite number of 1 ms sub-steps"),
        ("identify", "plant.Ts=inf", "Ts must be a finite number of 1 ms sub-steps"),
        ("track", "plant.Ts=inf", "Ts must be a finite number of 1 ms sub-steps"),
        ("adapt", "plant.Ts=1e308", "Ts must be a finite number of 1 ms sub-steps"),
        ("sweep", "plant.Ts=1e-307", "Ts must be at least the 1 ms sub-step"),
        ("identify", "plant.Ts=1e-307", "Ts must be at least the 1 ms sub-step"),
        ("track", "plant.Ts=1e-307", "Ts must be at least the 1 ms sub-step"),
        ("adapt", "adapt.n_iter=0", "n_iter must be >= 1"),
        ("adapt", "adapt.gain=-1", "gain must be > 0"),
        ("adapt", "adapt.profile=fast", "profile must be one of"),
        ("adapt", "adapt.lambda0=1.5", "lambda0 must be in (0, 1]"),
        ("sweep", "plant.Ts=10", "hold must be a finite number of samples, one at least"),
        ("sweep", "sweep.hold=inf", "hold must be finite"),
        ("sweep", "sweep.hold=nan", "hold must be finite"),
        ("sweep", "plant.spring_stiffness=inf", "spring_stiffness must be finite"),
        ("sweep", "plant.coulomb_open=nan", "coulomb_open must be finite"),
        ("track", "plant.motor_gain=nan", "motor_gain must be finite"),
        ("sweep", "plant.spring_stiffness=1e-307", "kinetic targets at duty cycle 100 must be finite"),
        ("sweep", "plant.motor_gain=1e308", "kinetic targets at duty cycle 100 must be finite"),
        ("track", "plant.spring_stiffness=1e-307", "kinetic targets at duty cycle 100 must be finite"),
        ("sweep", "plant.viscous_coeff=1e308 plant.spring_stiffness=1e-10",
         "time constant viscous_coeff / spring_stiffness must be finite"),
        ("sweep", "plant.rng_seed=-1", "rng_seed must be >= 0"),
        ("sweep", "plant.adc_bits=2000", "adc_bits must be <= 53"),
        ("sweep", "plant.pwm_levels=1000000000000000000000000000000", "pwm_levels must be <= 2**53 + 1"),
        ("etfe", "excitation.settle=1e308", "excitation settle must be at most"),
        ("etfe", "excitation.settle=nan", "excitation settle must be finite"),
        ("identify", "excitation.settle=-1", "excitation settle must be >= 0"),
        ("etfe", "excitation.offset=nan", "excitation range [nan, nan] leaves"),
        ("identify", "excitation.amplitude=nan", "excitation range [nan, nan] leaves"),
        ("track", "track.hold=1e308", "track hold must be at most"),
        ("track", "track.hold=1e20", "track hold must be at most"),
        ("adapt", "track.hold=nan", "track hold must be finite"),
        ("track", "track.settle=1e308", "track settle must be at most"),
        ("track", "track.settle=nan", "track settle must be finite"),
        ("adapt", "adapt.settle=1e308", "adapt settle must be at most"),
        ("adapt", "adapt.settle=-1", "adapt settle must be >= 0"),
        ("adapt", "adapt.gain=nan", "adapt gain must be finite"),
        ("adapt", "adapt.gain=inf", "adapt gain must be finite"),
        ("adapt", "adapt.operating_reference=nan", "adapt operating_reference must be finite"),
        ("adapt", "adapt.operating_reference=-inf", "adapt operating_reference must be finite"),
        ("adapt", "adapt.stop_tol=nan", "adapt stop_tol must be finite"),
        ("track", "track.levels=nan", "track levels must be finite"),
        ("track", "track.levels=40,inf", "track levels must be finite"),
        ("adapt", "track.levels=40,nan", "track levels must be finite"),
        ("sweep", "sweep.u_max=nan", "sweep u_max must be finite (got nan)"),
        ("sweep", "sweep.step=inf", "sweep step must be finite (got inf)"),
        ("sweep", "sweep.step=1e7", "a sweep needs at least 2 levels"),
        ("sweep", "sweep.u_max=1e-307", "a sweep needs at least 2 levels"),
        ("sweep", "sweep.u_max=1e7", "sweep of 200000100 samples (2 x levels x hold / Ts)"),
        ("sweep", "sweep.step=1e-307", "sweep of inf samples"),
        ("sweep", "sweep.hold=1e7", "sweep of 3600000000 samples"),
        ("etfe", "excitation.settle=1e7", "open-loop run of 200003066 samples"),
        ("identify", "excitation.settle=1e7", "open-loop run of 200003066 samples"),
        ("etfe", "excitation.periods=1000", "open-loop run of 1022100 samples"),
        ("sweep", "sweep.u_max=200 sweep.step=10", "the sweep's top level, step x (levels - 1) = 200.0"),
        ("sweep", "sweep.u_max=100.6 sweep.step=1", "the sweep's top level, step x (levels - 1) = 101.0"),
        ("track", "track.settle=1e7", "track run of 200000300 samples"),
        ("adapt", "adapt.settle=1e7", "adapt run of 200002860 samples"),
        ("adapt", "adapt.n_iter=1000000", "adapt run of 640000360 samples"),
        ("adapt", "excitation.length=100000000", "adapt run of 400001720 samples"),
        ("adapt", "adapt.warmup=10000000", "adapt run of 40002760 samples"),
        ("adapt", "adapt.warmup=-5", "adapt warmup must be >= 0"),
        ("track", "track.levels=1e308", "track levels must lie in the plant's angle range [0.0, 95.0] (got 1e+308)"),
        ("adapt", "track.levels=40,-0.5", "track levels must lie in the plant's angle range [0.0, 95.0] (got -0.5)"),
        ("adapt", "adapt.operating_reference=1e308",
         "adapt operating_reference must lie in the plant's angle range [0.0, 95.0] (got 1e+308)"),
        ("adapt", "plant.angle_max=92 adapt.operating_reference=93",
         "adapt operating_reference must lie in the plant's angle range [0.0, 92.0] (got 93.0)"),
        ("adapt", "adapt.stop_tol=-1", "adapt stop_tol must be >= 0 (got -1.0)"),
        ("etfe", "spectral.smooth_window=511", "spectral smooth_window must be <= the 510 bins of the ETFE (got 511)"),
        ("identify", "identify.scan_max=1000", "order scan of 1220088870000000 multiply-adds"),
        ("identify", "identify.scan_max=46", "order scan of 10829427732 multiply-adds"),
    ],
)
def test_input_checks_run_before_any_simulation(tmp_path, capsys, monkeypatch, command, override, message):
    """Each check on the input that a job used to make mid-run is made by the
    plan: exit 2, the library's message, and nothing simulated or written."""
    def never(*args, **kwargs):
        raise AssertionError("a plant ran before the input was checked")

    monkeypatch.setattr(plant, "ValveSimulator", never)
    monkeypatch.setattr(plant, "static_sweep", never)
    monkeypatch.setattr(cli, "open_loop_record", never)
    monkeypatch.setattr(adapt, "iterate", never)
    out = tmp_path / "out"
    sets = [arg for entry in override.split() for arg in ("--set", entry)]
    assert main([command, "--out", str(out), *sets]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"valvebench {command}: ") and message in err
    assert not out.exists()


def _scalar_edges(kind, domain):
    """(raw value, inside) at each condition of a scalar domain: just
    inside and just outside each bound, non-finite values where it must be
    finite, and every choice and one that is none."""
    step = (lambda x, to: x + (1 if to > x else -1)) if kind == "int" else math.nextafter
    edges = [(raw, False) for raw in ("nan", "inf", "-inf") if domain.finite]
    for op, limit in domain.bounds:
        up, down = step(limit, math.inf), step(limit, -math.inf)
        inside, outside = {">=": (limit, down), ">": (up, limit), "<=": (limit, up)}[op]
        edges += [(repr(inside), True), (repr(outside), False)]
    edges += [(choice, True) for choice in domain.choices]
    return edges + [("none-of-these", False)] * bool(domain.choices)


def _domain_edges(inside):
    """A case per edge of every domain declared in cli.SCHEMAS, just inside
    it or just outside; a list's edges are the empty list and its element
    domain's edges."""
    cases = []
    for command, sections in cli.SCHEMAS.items():
        for section, keys in sections.items():
            for key, (kind, _, *domain) in keys.items():
                if not domain:
                    continue
                d = domain[0]
                if d.each is None:
                    edges = _scalar_edges(kind, d)
                else:
                    edges = [("", False)] + _scalar_edges({"floats": "float"}.get(kind, "str"), d.each)
                cases += [
                    pytest.param(command, section, key, raw, id=f"{command}-{section}.{key}={raw}")
                    for raw, is_inside in edges if is_inside == inside
                ]
    return cases


@pytest.mark.parametrize("command, section, key, raw", _domain_edges(inside=True))
def test_a_value_just_inside_a_declared_domain_resolves(command, section, key, raw):
    kind = cli.SCHEMAS[command][section][key][0]
    assert resolve_config(command, [], [(section, key, raw)])[section][key] == {
        "int": int, "float": float, "str": str
    }[kind](raw)


@pytest.mark.parametrize("command, section, key, raw", _domain_edges(inside=False))
def test_a_value_just_outside_a_declared_domain_exits_2(tmp_path, capsys, command, section, key, raw):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", f"{section}.{key}={raw}"]) == 2
    assert capsys.readouterr().err.startswith(f"valvebench {command}: {section} {key} must be ")
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli.SCHEMAS))
def test_every_default_lies_in_its_domain(command):
    resolve_config(command, [], [])


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_every_shipped_config_resolves(path):
    command = path.name.partition("_")[0]
    resolve_config(command, read_key_values(str(path)), [])


def test_the_largest_order_scan_of_the_default_record_is_planned():
    """scan_max = 45 stays within MAX_SCAN_WORK on the default record; 46
    is rejected (test_input_checks_run_before_any_simulation)."""
    cli.plan_identify(resolve_config("identify", [], [("identify", "scan_max", "45")]))


def test_a_long_delay_is_designed(tmp_path):
    """A delay past the design kernels' rows takes the general route."""
    assert main(["design", "--out", str(tmp_path / "out"), "--set", "model.delay=300"]) == 0


@pytest.mark.parametrize("command", ["track", "adapt"])
def test_a_reference_past_the_cap_is_rejected_before_it_is_built(tmp_path, capsys, monkeypatch, command):
    """A hold of 1e7 s makes a reference of 1e9 samples: the plan rejects it
    from its length, exit 2 with nothing written, and never builds it."""
    def never(*args, **kwargs):
        raise AssertionError("the reference was built before its length was checked")

    monkeypatch.setattr(adapt, "step_sequence", never)
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", "track.hold=1e7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"valvebench {command}: track reference of 1000000000 samples")
    assert not out.exists()


def test_a_reference_at_the_cap_is_built():
    """The cap is on levels x hold / Ts: a reference of exactly
    MAX_REFERENCE_SAMPLES samples is built, one more is rejected."""
    track = {"levels": [40.0] * 5, "hold": 10000.0, "skip": 10}
    _, reference = cli._scenario_from_cfg(track, 0.05)
    assert len(reference) == cli.MAX_REFERENCE_SAMPLES
    with pytest.raises(ConfigError, match="track reference of 1000200 samples"):
        cli._scenario_from_cfg({**track, "levels": [40.0] * 5001, "hold": 10.0}, 0.05)


@pytest.mark.parametrize(
    "command, at_cap, past_cap, message",
    [
        # 2 x 10 000 levels x 50 samples up to 99.99 % duty, then 10 001
        # levels up to 100 %
        ("sweep", "sweep.u_max=99.99 sweep.step=0.01", "sweep.u_max=100 sweep.step=0.01",
         "sweep of 1000100 samples (2 x levels x hold / Ts)"),
        # 996 934 settling samples and 3 x 1 022 PRBS samples, then one more
        ("etfe", "excitation.settle=49846.7", "excitation.settle=49846.75",
         "open-loop run of 1000001 samples (settle / Ts + periods x PRBS period)"),
        ("identify", "excitation.settle=49846.7", "excitation.settle=49846.75",
         "open-loop run of 1000001 samples (settle / Ts + periods x PRBS period)"),
    ],
)
def test_an_open_loop_run_at_the_cap_is_simulated_and_one_past_it_is_not(
    tmp_path, capsys, monkeypatch, command, at_cap, past_cap, message
):
    """The plan passes a run of exactly MAX_REFERENCE_SAMPLES samples to its
    job, which reaches the simulator (patched here to raise, exit 1), and
    rejects one of a sample more with exit 2, nothing simulated or written."""
    def refuse(*args, **kwargs):
        raise RuntimeError("the simulator was reached")

    monkeypatch.setattr(plant, "ValveSimulator", refuse)
    out = tmp_path / "out"
    sets = [arg for entry in at_cap.split() for arg in ("--set", entry)]
    assert main([command, "--out", str(out), *sets]) == 1
    assert "the simulator was reached" in capsys.readouterr().err
    sets = [arg for entry in past_cap.split() for arg in ("--set", entry)]
    assert main([command, "--out", str(out), *sets]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"valvebench {command}: {message} exceeds the cap of 1000000")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, at_cap, past_cap, message",
    [
        # 999 700 settling samples and 5 x 60 reference samples, then one more
        ("track", "track.settle=49985", "track.settle=49985.05",
         "track run of 1000001 samples (settle / Ts + levels x hold / Ts)"),
        # 997 140 settling samples, 5 x 300 evaluation samples and 4 x (40 + 300)
        # identification samples, then one more settling sample
        ("adapt", "adapt.settle=49857", "adapt.settle=49857.05", "adapt run of 1000001 samples"),
        # 60 + 1 500 + 4 x (40 + 249 570) samples, then a longer excitation
        ("adapt", "excitation.length=249570", "excitation.length=249571", "adapt run of 1000004 samples"),
    ],
)
def test_a_closed_loop_run_at_the_cap_is_simulated_and_one_past_it_is_not(
    tmp_path, capsys, monkeypatch, command, at_cap, past_cap, message
):
    """The plan counts the settle, the evaluations and the identifications
    of a closed-loop run: one of exactly MAX_REFERENCE_SAMPLES samples
    reaches the simulator (patched here to raise, exit 1), and a longer one
    exits 2 with nothing simulated or written."""
    def refuse(*args, **kwargs):
        raise RuntimeError("the simulator was reached")

    monkeypatch.setattr(plant, "ValveSimulator", refuse)
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--set", at_cap]) == 1
    assert "the simulator was reached" in capsys.readouterr().err
    assert main([command, "--out", str(out), "--set", past_cap]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"valvebench {command}: {message}") and "exceeds the cap of 1000000" in err
    assert not out.exists()


@settings(max_examples=200, deadline=None)
@given(
    u_max=st.one_of(
        st.floats(1e-3, 1e4), st.sampled_from([1e-307, 0.5, 99.99, 100.0, 100.4, 100.6, 9999.0, 10000.0])
    ),
    step=st.one_of(st.floats(1e-2, 1e3), st.sampled_from([1.0, 2.0, 1e7])),
    hold=st.sampled_from([2.5, 2.52, 100.0]),
)
def test_sweep_plan_counts_the_levels_it_builds(u_max, step, hold):
    """The plan's count of levels is the length of the arange it builds: it
    rejects the sweep exactly where that length is under 2, makes more than
    MAX_REFERENCE_SAMPLES samples, or puts the top level past 100 % duty,
    and otherwise passes the levels on."""
    sets = [("sweep", "u_max", repr(u_max)), ("sweep", "step", repr(step)), ("sweep", "hold", repr(hold))]
    cfg = resolve_config("sweep", [], sets)
    levels = np.arange(0.0, u_max + step / 2, step)
    n_levels = len(levels)
    n_hold = round(hold / cfg["plant"]["Ts"])
    rejected = (
        n_levels < 2
        or 2 * n_levels * n_hold > cli.MAX_REFERENCE_SAMPLES
        or levels[-1] > 100.0
    )
    try:
        job = cli.plan_sweep(cfg)
    except ConfigError as err:
        assert rejected, str(err)
    else:
        assert not rejected
        assert len(job.args[1]) == n_levels


@pytest.mark.parametrize(
    "argv", [[], ["--config", str(CONFIGS / "etfe_valve0.cfg")]], ids=["defaults", "cfg"]
)
def test_etfe_band_plan_passes_the_shipped_bands(tmp_path, argv):
    out = tmp_path / "out"
    assert main(["etfe", "--out", str(out), *argv]) == 0
    assert (out / "report.txt").is_file()


@pytest.mark.parametrize(
    "excitation",
    [[], ["excitation.divider=1"], ["excitation.divider=3", "excitation.analyze_periods=3"],
     ["excitation.divider=4", "excitation.n_registers=6", "excitation.analyze_periods=1"],
     ["excitation.amplitude=0"]],
    ids=["defaults", "divider-1", "divider-3", "divider-4", "no-amplitude"],
)
def test_etfe_plan_rejects_exactly_the_bands_the_job_cannot_fit(excitation):
    """Over a grid of slope and plateau bands, including bands whose edges
    sit on excited bins or reach the Nyquist bin the hold nulls, plan_etfe
    rejects a band exactly when the job's own bin check fails on the
    smoothed ETFE of a run."""
    overrides = parse_set_args(excitation)
    cfg = resolve_config("etfe", [], overrides)
    exc, Ts = cfg["excitation"], cfg["plant"]["Ts"]
    prbs = cli._prbs_from_cfg(exc, Ts)
    u, y = cli.open_loop_record(get_preset("valve0"), Ts, exc, prbs)
    u_d, y_d = cli._analysis_window(u, y, prbs.period, exc["analyze_periods"])
    response = spectral.smooth(spectral.etfe(u_d, y_d, Ts), size=cfg["spectral"]["smooth_window"])
    f = response.frequencies
    bands = [(lo, lo * ratio) for lo in np.geomspace(0.05, 60.0, 25) for ratio in (1.01, 1.1, 1.3, 2.0)]
    bands += [(f[i], f[i + width]) for i in range(0, len(f) - 6, 37) for width in (0, 3, 4, 5)]
    bands += [(f[-width], math.pi / Ts) for width in (1, 4, 5) if width <= len(f)]
    verdicts = set()
    for lo, hi in bands:
        for key in ("slope", "plateau"):
            if key == "slope" and not lo < hi:
                continue
            band = [f"spectral.{key}_lo={float(lo)!r}", f"spectral.{key}_hi={float(hi)!r}"]
            try:
                cli.plan_etfe(resolve_config("etfe", [], overrides + parse_set_args(band)))
                planned = True
            except ConfigError as err:
                assert f"{key} band" in str(err) or "bins in the band" in str(err)
                planned = False
            try:
                if key == "slope":
                    spectral.slope_fit(response, (lo, hi))
                else:
                    spectral.corner_from_asymptotes(response, (lo, hi), (3.0, 30.0))
                fits = True
            except ValueError as err:
                assert "bins" in str(err)
                fits = False
            assert planned == fits, (key, lo, hi)
            verdicts.add(planned)
    assert verdicts == ({False} if excitation == ["excitation.amplitude=0"] else {True, False})


@pytest.mark.parametrize(
    "argv", [["track"], ["adapt", "--config", str(CONFIGS / "adapt_valve6.cfg")]], ids=["track", "adapt"]
)
def test_out_of_range_skip_is_rejected_before_any_simulation(tmp_path, capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("a closed loop ran before track.skip was checked")

    monkeypatch.setattr(adapt, "tracking_run", never)
    monkeypatch.setattr(adapt, "_settle", never)
    monkeypatch.setattr(adapt, "iterate", never)
    rc = main(argv + ["--out", str(tmp_path), "--set", "track.skip=100000"])
    assert rc == 2
    assert "track skip must be < the 300 samples of the reference (got 100000)" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_estimator_divergence_is_a_run_failure(tmp_path, capsys):
    """A blown-up estimator exits 1 and names the divergence; it is not bad
    input, and numpy prints no overflow warnings ahead of the message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(
            [
                "adapt",
                "--config",
                str(CONFIGS / "adapt_valve6.cfg"),
                "--out",
                str(tmp_path),
                "--set",
                "adapt.gain=1e300",
            ]
        )
    assert rc == 1
    err = capsys.readouterr().err
    assert "valvebench adapt failed:" in err
    assert "diverged" in err


def test_gain_matrix_losing_definiteness_is_a_run_failure(tmp_path, capsys):
    """F turning indefinite under a huge adaptation gain is a divergence
    (exit 1), not a config error (exit 2)."""
    rc = main(
        [
            "adapt",
            "--config",
            str(CONFIGS / "adapt_valve6.cfg"),
            "--out",
            str(tmp_path),
            "--set",
            "adapt.gain=1e14",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "valvebench adapt failed:" in err
    assert "lost positive definiteness" in err


@pytest.mark.parametrize("presets", ["valve6", "valve0,valve6"])
def test_failed_run_leaves_no_partial_output(tmp_path, capsys, presets):
    """A failed run, single or fanned out, writes no file into --out and
    leaves no staging directory behind."""
    out = tmp_path / "out"
    rc = main(
        [
            "adapt",
            "--config",
            str(CONFIGS / "adapt_valve6.cfg"),
            "--out",
            str(out),
            "--set",
            "adapt.gain=1e14",
            "--set",
            f"plant.preset={presets}",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "valvebench adapt failed:" in err and "diverged" in err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
    assert list(tmp_path.rglob(".valvebench-*")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--set", "plant.preset=valve0,valve1", "--set", "plant.viscous_coeff=-1"],
        ["adapt", "--set", "plant.preset=valve0,valve1", "--set", "excitation.amplitude=80"],
    ],
    ids=["sweep-viscous", "adapt-amplitude"],
)
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_rejected_fan_out_leaves_nothing_on_disk(tmp_path, capsys, argv, parallel):
    """A fan-out whose presets fail their checks exits 2 and removes the
    directories it created, --out and its parents included, also when the
    presets run in parallel workers; an --out that existed before the run
    stays."""
    argv = argv + ["--parallel", parallel]
    assert main(argv + ["--out", str(tmp_path / "runs" / "today")]) == 2
    assert list(tmp_path.iterdir()) == []
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err.count("valvebench") == 2


@pytest.mark.parametrize("presets", ["valve9,valve0", "valve0,valve9"])
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_unknown_preset_of_a_fan_out_leaves_nothing_on_disk(tmp_path, capsys, presets, parallel):
    """Every preset name is checked before any run starts: an unknown one
    exits 2 with nothing on disk, wherever it stands in the list and
    whether the presets run in one process or in parallel workers."""
    argv = ["sweep", "--set", f"plant.preset={presets}", "--set", "sweep.u_max=5",
            "--parallel", parallel, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    assert "unknown preset 'valve9'" in capsys.readouterr().err


@pytest.mark.parametrize("presets", ["valve0,valve1", "valve1,valve0"])
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_plant_rejected_for_one_preset_of_a_fan_out_leaves_nothing_on_disk(
    tmp_path, capsys, presets, parallel
):
    """Every preset's plant is built before any output exists: a plant
    override that only valve0 rejects exits 2 with nothing on disk, in either
    order and under any --parallel, on one stderr line naming valve0."""
    argv = ["sweep", "--set", f"plant.preset={presets}", "--set", "plant.angle_max=85",
            "--set", "sweep.u_max=5", "--parallel", parallel, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "spring_rest_angle must lie within the stops (valve0)" in err[0]


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_diverging_preset_of_a_fan_out_leaves_the_others_complete(tmp_path, capsys, parallel):
    """A preset whose run diverges does not stop the others, in one process
    or in workers: valve7's output is the one a single-preset run writes,
    valve0 leaves no directory, and one stderr line names valve0."""
    argv = ["adapt", "--config", str(CONFIGS / "adapt_valve6.cfg"), "--set", "adapt.gain=1e14"]
    out, single = tmp_path / "out", tmp_path / "single"
    assert main(argv + ["--set", "plant.preset=valve7", "--out", str(single)]) == 0
    rc = main(argv + ["--set", "plant.preset=valve0,valve7", "--parallel", parallel,
                      "--out", str(out)])
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["valve7"]
    names = sorted(p.name for p in single.iterdir())
    assert sorted(p.name for p in (out / "valve7").iterdir()) == names
    for name in names:
        assert (out / "valve7" / name).read_bytes() == (single / name).read_bytes()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "valvebench adapt failed:" in err[0] and "(valve0)" in err[0]


def test_fan_out_designs_the_controller_once(tmp_path, monkeypatch):
    """The design of a track run does not depend on the preset, so a
    fan-out makes it once, in the plan."""
    calls = []
    design = cli._design_from_cfg
    monkeypatch.setattr(cli, "_design_from_cfg", lambda *a: calls.append(a) or design(*a))
    argv = ["track", "--set", "plant.preset=valve0,valve1", "--set", "track.levels=40,50",
            "--set", "track.hold=1.0", "--set", "track.settle=1.0", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["valve0", "valve1"]


def test_failed_preset_of_a_fan_out_leaves_no_directory(tmp_path, capsys, monkeypatch):
    """A fan-out whose second preset fails exits 1, keeps the first preset's
    complete output and leaves no directory for the failed one."""
    plan_sweep = cli.PLANS["sweep"]

    def failing_on_valve1(cfg):
        job = plan_sweep(cfg)

        def run(out_dir, preset, params):
            if preset == "valve1":
                raise DivergenceError("estimate diverged")
            return job(out_dir, preset, params)

        return run

    monkeypatch.setitem(cli.PLANS, "sweep", failing_on_valve1)
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out), "--set", "plant.preset=valve0,valve1", "--set",
            "sweep.u_max=5", "--parallel", "1"]
    assert main(argv) == 1
    assert "valvebench sweep failed: estimate diverged" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["valve0"]
    assert sorted(p.name for p in (out / "valve0").iterdir()) == ["report.txt", "sweep.csv"]
    assert parse_report(out / "valve0" / "report.txt")["preset"] == "valve0"


class _TwoPartError(Exception):
    """An exception that pickle cannot rebuild: its __init__ takes two
    arguments, and its args hold one."""

    def __init__(self, what, why):
        super().__init__(f"{what} {why}")


def _job_failing_by_preset(out_dir, preset, params):
    """A job that writes a file, then fails on valve0, valve1 and valve2 with
    exceptions no layer raises on purpose: one with a message, one without,
    and one a worker process could not send back as it is.  It is a
    module-level function, so that a worker process can unpickle it."""
    Path(out_dir, "partial.csv").write_text("t\n0\n")
    if preset == "valve0":
        return [("ratio", 1 / 0)]
    if preset == "valve1":
        raise AssertionError()
    if preset == "valve2":
        raise _TwoPartError("valve2", "jammed")
    return [("preset", preset)]


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_any_exception_of_a_job_exits_1_on_one_line(tmp_path, capsys, monkeypatch, parallel):
    """An exception of any kind from a job is a failed run: exit 1, one
    stderr line naming its type and no traceback, and the failed job leaves
    no file, in one process or in parallel workers."""
    monkeypatch.setitem(cli.PLANS, "sweep", lambda cfg: _job_failing_by_preset)
    single, fan_out = tmp_path / "single", tmp_path / "fan_out"
    assert main(["sweep", "--set", "plant.preset=valve1", "--out", str(single)]) == 1
    assert not single.exists()
    argv = ["sweep", "--set", "plant.preset=valve0,valve1,valve2,valve3",
            "--parallel", parallel, "--out", str(fan_out)]
    assert main(argv) == 1
    assert sorted(p.name for p in fan_out.iterdir()) == ["valve3"]
    assert sorted(p.name for p in (fan_out / "valve3").iterdir()) == ["partial.csv", "report.txt"]
    assert capsys.readouterr().err.splitlines() == [
        "valvebench sweep failed: AssertionError",
        "valvebench sweep failed: ZeroDivisionError: division by zero (valve0)",
        "valvebench sweep failed: AssertionError (valve1)",
        "valvebench sweep failed: _TwoPartError: valve2 jammed (valve2)",
    ]


def test_run_stages_inside_out_so_its_renames_stay_on_one_filesystem(tmp_path, monkeypatch):
    """--out may be a mount point: a rename into it from anywhere outside
    fails with EXDEV, so the staging directory must sit inside --out."""
    out = tmp_path / "out"
    real_replace, real_mkdtemp = os.replace, tempfile.mkdtemp
    staged_in = []

    def inside_out(p):
        return os.path.commonpath([str(out), os.path.abspath(p)]) == str(out)

    def replace(src, dst):
        if inside_out(src) != inside_out(dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(
        tempfile, "mkdtemp", lambda **kw: staged_in.append(kw["dir"]) or real_mkdtemp(**kw)
    )
    assert main(["sweep", "--out", str(out), "--set", "sweep.u_max=5"]) == 0
    assert staged_in == [str(out)]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "report.txt", "sweep.csv"]


def test_successful_run_removes_its_empty_staging_directory_without_rmtree(tmp_path, monkeypatch):
    """Once every file has moved up, the staging directory is empty and one
    rmdir removes it; rmtree is left to a failed run."""
    def never(*args, **kwargs):
        raise AssertionError("rmtree after a successful run")

    monkeypatch.setattr(cli.shutil, "rmtree", never)
    out = tmp_path / "out"
    assert main(["sweep", "--out", str(out), "--set", "sweep.u_max=5"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.txt", "sweep.csv"]


def test_multi_preset_fan_out(tmp_path):
    rc = main(
        [
            "sweep",
            "--out",
            str(tmp_path),
            "--set",
            "plant.preset=valve0,valve1",
            "--set",
            "sweep.u_max=10",
        ]
    )
    assert rc == 0
    for preset in ("valve0", "valve1"):
        report = parse_report(tmp_path / preset / "report.txt")
        assert report["preset"] == preset
        assert (tmp_path / preset / "sweep.csv").exists()


def test_multi_preset_parallel_workers(tmp_path):
    rc = main(
        [
            "sweep",
            "--out",
            str(tmp_path),
            "--set",
            "plant.preset=valve0,valve1",
            "--set",
            "sweep.u_max=5",
            "--parallel",
            "2",
        ]
    )
    assert rc == 0
    assert (tmp_path / "valve0" / "report.txt").exists()
    assert (tmp_path / "valve1" / "report.txt").exists()
