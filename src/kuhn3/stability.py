"""Linear stability of equilibria under the adjustment dynamics.

The Jacobian of df/dt = 24 k_f f (1 - f) dE/df is assembled in frequency
coordinates (the log-odds chart is singular at boundary equilibria).  The
multilinear structure gives it in closed form: own-player second partials
vanish, so the diagonal entry is k_f (1 - 2f) g_f with g_f the scaled
gradient, and cross-player entries are k_f f (1 - f) times constant or
single-frequency coefficients.

Unstable families (2, 3, 6, 7, 8) show an eigenvalue with positive real
part; the remaining families (1, 4, 5, 9, 10) have spectra on the
imaginary axis: purely oscillatory conjugate pairs plus zero modes from
free parameters, i.e. a centre manifold rather than asymptotic stability.

:func:`jacobian`, :func:`eigenvalues` and :func:`spectra` take stacks as
well as single matrices: the catalog sweeps evaluate a block of rows with
one stacked Jacobian and one LAPACK call on the (n, 11, 11) stack, which
runs the same routine per matrix, so every row is bit-identical to its
single evaluation.  :func:`classify_equilibrium` is the one-row case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import analytic_ev, catalog
from .dynamics import gains_array

__all__ = [
    "NoConvergence",
    "StabilityReport",
    "Verdict",
    "classify_equilibrium",
    "eigenvalues",
    "jacobian",
    "spectra",
]

RE_TOL = 1e-7
IM_TOL = 1e-9


class NoConvergence(RuntimeError):
    """The eigenvalue iteration failed to converge."""


class Verdict(enum.Enum):
    UNSTABLE = "Unstable"
    CENTRE_MANIFOLD_STABLE = "CentreManifoldStable"

    @classmethod
    def of(cls, max_real_part: float) -> "Verdict":
        """Unstable iff some eigenvalue has real part above ``RE_TOL``."""
        return (cls.UNSTABLE if max_real_part > RE_TOL
                else cls.CENTRE_MANIFOLD_STABLE)


_DIAG = np.arange(11)


def jacobian(profile, pot, gains=None) -> np.ndarray:
    """11x11 Jacobian of the frequency-coordinate dynamics at ``profile``.

    Boundary coordinates are fine here: at f = 0 the row reduces to the
    one-sided rate k_f * g_f on the diagonal, and at f = 1 to -k_f * g_f.
    For (n, 11) frequency rows and n pots, the (n, 11, 11) stack.
    """
    F, P, stacked = analytic_ev._as_rows(profile, pot)
    k = gains_array(gains)
    g = np.array(analytic_ev._partials(F.T, P)).T
    J = analytic_ev.gradient_cross(F, P)
    J *= (k * F * (1.0 - F))[:, :, None]
    J[:, _DIAG, _DIAG] += k * (1.0 - 2.0 * F) * g
    return J if stacked else J[0]


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Full complex spectrum of a real square matrix, or of each matrix
    in an (n, m, m) stack.

    Backed by LAPACK's dense nonsymmetric solver (balancing, Hessenberg
    reduction, shifted QR); raises :class:`NoConvergence` if the iteration
    fails.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of the linearisation at an equilibrium with its verdict.

    ``oscillatory_pairs`` counts conjugate pairs on the imaginary axis
    (|Re| <= re_tol, |Im| > im_tol); ``zero_modes`` counts eigenvalues with
    |lambda| <= re_tol (free-parameter directions).
    """

    solution_id: str
    pot: float
    eigenvalues: tuple
    max_real_part: float
    oscillatory_pairs: int
    zero_modes: int
    verdict: Verdict
    re_tol: float = RE_TOL
    im_tol: float = IM_TOL

    def to_json(self) -> dict:
        return {
            "solution": self.solution_id,
            "pot": self.pot,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "max_real_part": self.max_real_part,
            "oscillatory_pairs": self.oscillatory_pairs,
            "zero_modes": self.zero_modes,
            "verdict": self.verdict.value,
            "re_tol": self.re_tol,
            "im_tol": self.im_tol,
        }


def spectra(profile, pot, gains=None) -> tuple:
    """(eigenvalues, max_real_part, oscillatory_pairs, zero_modes) of the
    Jacobian at ``profile``, eigenvalues by descending real part, counted
    as in :class:`StabilityReport`.  For (n, 11) frequency rows and n pots,
    one row of each per profile."""
    lam = eigenvalues(jacobian(profile, pot, gains))
    lam = np.take_along_axis(lam, np.argsort(-lam.real, axis=-1), axis=-1)
    max_re = lam.real.max(axis=-1)
    pairs = np.count_nonzero((np.abs(lam.real) <= RE_TOL)
                             & (lam.imag > IM_TOL), axis=-1)
    zeros = np.count_nonzero(np.abs(lam) <= RE_TOL, axis=-1)
    return lam, max_re, pairs, zeros


def classify_equilibrium(sol_id: str, pot: float, free_params=None,
                         gains=None) -> StabilityReport:
    """Linear stability report for a catalog solution at ``pot``."""
    profile = catalog.instantiate(sol_id, pot, free_params)
    lam, max_re, pairs, zeros = spectra(profile, pot, gains)
    max_re = float(max_re)
    return StabilityReport(sol_id, float(pot), tuple(lam), max_re, int(pairs),
                           int(zeros), Verdict.of(max_re))
