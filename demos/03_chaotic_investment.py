"""Chaotically fluctuating capital investment.

The capital investment fraction is modulated as s_k + c*x(t) where x comes
from a 3-D chaotic oscillator.  Its running average settles near +0.14, so
positive modulation (c = +0.5, hype-driven investment) biases growth up
while negative modulation (c = -0.5, erratic policy) biases it down.

Run from the repository root:  python demos/03_chaotic_investment.py
"""

from pathlib import Path

import numpy as np

from capedu import EconState, ModelParams, render_svg, simulate_modulated, simulate_ne9
from capedu.chaos import running_average

params = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.15,
                     alpha=0.2, beta=0.35)
start = EconState(K=4.0, E=1.0)

# the driver on its own: bounded, aperiodic, slightly positive on average
driver = simulate_ne9(horizon=100.0)
avg = running_average(driver.times, driver.states[:, 0])
print(f"driver running average A(100) = {avg[-1]:.4f}")
print(f"driver amplitude max|x|       = {np.max(np.abs(driver.states[:, 0])):.3f}")

series = []
for c, label in ((0.5, "c=+0.5 (hype)"), (0.0, "c=0 (steady)"),
                 (-0.5, "c=-0.5 (erratic)")):
    traj = simulate_modulated(params, c, start, horizon=200.0,
                              sample_step=0.05)
    window = (traj.times >= 100.0) & (traj.times <= 200.0)
    print(f"{label:18s} mean Y over [100,200] = "
          f"{np.mean(traj['Y'][window]):.4f}  "
          f"min effective s_k = {traj.min_effective_sk:.4f}")
    series.append((label, traj.times, traj["Y"]))

out = Path(__file__).resolve().parent / "output"
out.mkdir(exist_ok=True)
svg = render_svg(series, title="output under chaotic investment modulation")
(out / "chaotic_investment.svg").write_text(svg)
print(f"figure written to {out / 'chaotic_investment.svg'}")
