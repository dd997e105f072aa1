"""Print the behavioral envelope of every shipped valve preset.

For each preset: static hysteresis width, step rise time, static gain, and
the smoothed-ETFE mid-band slope and corner frequency.  Handy when touching
the preset table or the simulator physics: the whole table should stay
inside the ranges asserted by the acceptance tests.

Run:  python scripts/preset_envelope.py
"""

import numpy as np

from valvebench.plant import ValveSimulator, measure_rise_time, open_loop, static_sweep, valve_run
from valvebench.presets import PRESET_NAMES, get_preset
from valvebench.signals import PrbsConfig, prbs_generate
from valvebench.spectral import corner_from_asymptotes, etfe, slope_fit, smooth

TS = 0.05


def prbs_record(params):
    cfg = PrbsConfig(n_registers=9, divider=2, seed=0, offset=16.0, amplitude=12.0)
    sim = ValveSimulator(params, TS)
    for _ in range(int(round(5.0 / TS))):
        sim.advance(16.0)
    u = prbs_generate(cfg, 3 * cfg.period)
    y = open_loop(sim, u)
    n = 2 * cfg.period
    u_w = u[-n:]
    y_w = y[-n:]
    return u_w - u_w.mean(), y_w - y_w.mean()


def main():
    print(f"{'preset':8s} {'hyst_deg':>9s} {'rise_s':>7s} {'gain':>7s} "
          f"{'slope_db_dec':>13s} {'corner_rad_s':>13s}")
    for name in PRESET_NAMES:
        params = get_preset(name)
        hmap = static_sweep(params, np.arange(0.0, 45.0, 5.0), hold=2.5, Ts=TS)
        gain = float(np.polyfit(hmap.levels, hmap.angle_up, 1)[0])
        rise = measure_rise_time(valve_run(params, np.full(60, 20.0), TS), TS)
        u_w, y_w = prbs_record(params)
        resp = smooth(etfe(u_w, y_w, TS), 25)
        slope = slope_fit(resp, (3.0, 30.0))
        corner = corner_from_asymptotes(resp, (0.3, 0.8), (3.0, 30.0))
        print(f"{name:8s} {hmap.width:9.2f} {rise:7.2f} {gain:7.2f} "
              f"{slope:13.1f} {corner:13.2f}")


if __name__ == "__main__":
    main()
