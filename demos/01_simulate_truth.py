"""Forward-simulate the seven-compartment model at the reference parameter
point and print the headline trajectory numbers."""

import numpy as np

from seiard.dynamics import build_initial_state, integrate, observe
from seiard.defaults import HORIZON_DAYS, INIT_OBSERVED, POPULATION_N, TRUE_PARAMS

init = build_initial_state(TRUE_PARAMS, POPULATION_N, INIT_OBSERVED)
traj = integrate(TRUE_PARAMS, init, HORIZON_DAYS, dt=0.1)
obs = observe(traj)

# mass is conserved by construction, drift here is pure float error
totals = traj.states.sum(axis=1)
print(f"population drift: {np.abs(totals - POPULATION_N).max():.3e} persons")

active = obs.series("active")
peak_day = int(np.argmax(active))
print(f"peak active:      {active[peak_day]:,.0f} on day {peak_day}")
print(f"final recovered:  {obs.series('recovered')[-1]:,.0f}")
print(f"final deceased:   {obs.series('deceased')[-1]:,.0f}")
print(f"case fatality:    {obs.series('deceased')[-1] / obs.series('total')[-1]:.4f}")

print()
print("day    active       recovered    deceased     total")
for day in (0, 7, 14, 28, 56, 112, 224, 400):
    row = [obs.series(name)[day] for name in ("active", "recovered",
                                              "deceased", "total")]
    print(f"{day:<6d} " + " ".join(f"{v:<12,.0f}" for v in row))
