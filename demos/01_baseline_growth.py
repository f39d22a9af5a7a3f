"""Baseline growth run: integrate the 2-D system and compare the long-run
state against the closed-form equilibrium.

Run from the repository root:  python demos/01_baseline_growth.py
"""

import numpy as np

from capedu import EconState, ModelParams, equilibrium_report, integrate
from capedu.model import basic_rhs, output

params = ModelParams(s_k=0.4, s_r=0.1, delta_k=0.15, delta_r=0.25,
                     alpha=0.2, beta=0.35)
start = EconState(K=4.0, E=1.0)

# The closed-form side: a 2x2 linear solve in (ln E, ln K) gives the
# equilibrium exactly, and the eigenvalues come from the quadratic
# characteristic polynomial.
report = equilibrium_report(params)
print("closed form:")
print(f"  equilibrium (K0, E0) = ({report.K0:.6f}, {report.E0:.6f})")
print(f"  output level Y0      = {report.Y0:.6f}")
print(f"  eigenvalues          = {[f'{e.real:.6f}' for e in report.eigenvalues]}")
print(f"  classification       = {report.classification.value}")

# The simulated side: run long enough that the transient has fully decayed.
raw = integrate(basic_rhs(params), [start.K, start.E], 0.0, 500.0,
                sample_step=1.0)
K, E = raw.states[-1]
print("\nsimulation at t=500:")
print(f"  state  = ({K:.8f}, {E:.8f})")
print(f"  error vs closed form = "
      f"{max(abs(K - report.K0), abs(E - report.E0)):.2e}")

# The start (4, 1) has Y(0) = 1.6245 above the equilibrium level, so output
# declines toward 1.4271 while the capital/expertise mix rebalances.
Y = output(params, raw.states[:, 0], raw.states[:, 1])
for t in (0, 50, 100, 200, 500):
    i = int(np.argmin(np.abs(raw.times - t)))
    print(f"  Y({t:3d}) = {Y[i]:.4f}")
