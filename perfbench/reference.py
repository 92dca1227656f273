"""Independent reference integration of the repeated-play dynamics.

The right-hand side comes from the tree-walk oracle alone
(``kuhn3.expected_profit_bruteforce``): each E_i is affine in every
frequency its owner i controls, so dE_i/df = E_i(f=1) - E_i(f=0) exactly,
and dp_i/dt = E_i.  The state is the eleven log-odds F = log(f/(1-f))
followed by the three accumulated profits, as in the program, with unit
gains: dF/dt = 24 * dE_owner/df.  SciPy's DOP853 integrates it; neither
``kuhn3._stepper`` nor ``kuhn3.analytic_ev`` is used.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

import kuhn3

_OWNER = [int(name[1]) - 1 for name in kuhn3.FREQ_NAMES]


def oracle_rhs(_t: float, y: np.ndarray, pot: float) -> np.ndarray:
    f = 1.0 / (1.0 + np.exp(-y[:11]))
    out = np.empty(14)
    for j, owner in enumerate(_OWNER):
        hi = f.copy()
        lo = f.copy()
        hi[j] = 1.0
        lo[j] = 0.0
        e_hi = kuhn3.expected_profit_bruteforce(kuhn3.StrategyProfile(*hi), pot)
        e_lo = kuhn3.expected_profit_bruteforce(kuhn3.StrategyProfile(*lo), pot)
        out[j] = 24.0 * (e_hi[owner] - e_lo[owner])
    out[11:] = kuhn3.expected_profit_bruteforce(kuhn3.StrategyProfile(*f), pot)
    return out


def reference_window(initial: kuhn3.StrategyProfile, pot: float,
                     times: np.ndarray) -> tuple:
    """Frequencies (n, 11) and profits (n, 3) at ``times`` from t=0."""
    f0 = np.array(initial.as_tuple())
    y0 = np.concatenate([np.log(f0) - np.log1p(-f0), np.zeros(3)])
    sol = solve_ivp(oracle_rhs, (0.0, float(times[-1])), y0, method="DOP853",
                    t_eval=times, rtol=1e-11, atol=1e-12, args=(pot,))
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    F = sol.y[:11].T
    return 1.0 / (1.0 + np.exp(-F)), sol.y[11:].T
