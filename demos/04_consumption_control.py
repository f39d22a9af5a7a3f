"""Steering education investment from a consumption target.

The government fixes a target fraction p of output for consumption; the
education investment fraction s_r then drifts at the rate consumption
exceeds the target.  Aiming for more consumption (larger p) starves
education and can shrink output so much that realized consumption falls:
there is a tipping point in p.

Run from the repository root:  python demos/04_consumption_control.py
"""

from pathlib import Path

from capedu import (
    EconState,
    ModelParams,
    controlled_equilibrium,
    find_tipping,
    render_svg,
    simulate_controlled,
)

params = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                     alpha=0.2, beta=0.35)
start = EconState(K=4.0, E=1.0)

print("consumption target vs long-run outcome (closed form):")
print(f"{'p':>6} {'Y_inf':>8} {'C_inf':>8}")
for p in (0.40, 0.44, 0.47, 0.50, 0.55):
    Y = controlled_equilibrium(params, p).Y0
    print(f"{p:6.2f} {Y:8.4f} {p * Y:8.4f}")
print("note C_inf peaks below p=0.55: demanding more consumption "
      "delivers less of it.\n")

series = []
for p in (0.40, 0.47, 0.55):
    traj = simulate_controlled(params, p, start, s_r0=0.1, horizon=200.0,
                               sample_step=0.5)
    print(f"p={p:.2f}: Y(200)={traj['Y'][-1]:.4f}  C(200)={traj['C'][-1]:.4f}"
          f"  s_r(200)={traj['s_r'][-1]:.4f}")
    series.append((f"p={p}", traj.times, traj["Y"]))

result = find_tipping(params, start, 0.1, 200.0, 0.40, 0.55, tol=1e-3)
print(f"\ntipping point: p* = {result.p_star:.4f} "
      f"(bracket {result.bracket[0]:.4f}..{result.bracket[1]:.4f})")

out = Path(__file__).resolve().parent / "output"
out.mkdir(exist_ok=True)
svg = render_svg(series, title="output under consumption targets")
(out / "consumption_control.svg").write_text(svg)
print(f"figure written to {out / 'consumption_control.svg'}")
