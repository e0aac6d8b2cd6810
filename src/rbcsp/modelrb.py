"""Model RB random binary CSP generation, including forced-satisfiable instances.

Model RB draws r·n·ln(n) variable pairs with replacement and, independently
per constraint, disallows a fraction p of the d² value pairs (drawn without
replacement).  With domain size d = n^0.8, r = 0.8/(ln 4 − ln 3) and p = 0.25
the instances sit at the satisfiability phase transition, which is where the
frbX-Y benchmark family lives (X variables, domain size Y).

All randomness flows through numpy's PCG64 so that (params, seed) pins the
generated instance byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Assignment, CspInstance, check_size

PHASE_ALPHA = 0.8
PHASE_R = 0.8 / (math.log(4) - math.log(3))
PHASE_P = 0.25
MAX_DISALLOWED_PAIRS = 16_000_000  # m·q pairs sampled; frb100-40 has 0.51M


def _round_half_away(x: float) -> int:
    """Nearest integer, halves away from zero (positive inputs only here)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ModelRbParams:
    """Generator parameters (n, alpha, r, p) with the derived integer counts.

    d = round(n^alpha), m_constraints = round(r·n·ln n), and
    forbidden_per_constraint = round(p·d²), rounding half away from zero.
    """

    n: int
    alpha: float = PHASE_ALPHA
    r: float = PHASE_R
    p: float = PHASE_P

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"need 0 < p < 1, got {self.p}")
        if self.r <= 0.0:
            raise ValueError(f"need r > 0, got {self.r}")
        try:
            d, m, q = self.d, self.m_constraints, self.forbidden_per_constraint
        except (OverflowError, ValueError):  # a float overflowed, or is inf or nan
            raise ValueError("derived counts d = n^alpha, m = r·n·ln n and p·d² "
                             "must be finite integers; lower n, alpha or r") from None
        if d < 2:
            raise ValueError(f"derived domain size {d} < 2 (n={self.n}, "
                             f"alpha={self.alpha})")
        if q < 1:
            raise ValueError("derived forbidden-pair count is zero; raise p")
        if q >= d * d:
            raise ValueError("every value pair would be disallowed; lower p")
        if m < 1:
            raise ValueError("derived constraint count is zero; raise r")

    @property
    def d(self) -> int:
        return _round_half_away(self.n ** self.alpha)

    @property
    def m_constraints(self) -> int:
        return _round_half_away(self.r * self.n * math.log(self.n))

    @property
    def forbidden_per_constraint(self) -> int:
        return _round_half_away(self.p * self.d * self.d)

    @classmethod
    def from_counts(cls, n: int, d: int, m_constraints: int,
                    forbidden_per_constraint: int) -> "ModelRbParams":
        """Back out (alpha, r, p) from explicit integer counts."""
        if n < 2 or d < 2:
            raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
        params = cls(
            n=n,
            alpha=math.log(d) / math.log(n),
            r=m_constraints / (n * math.log(n)),
            p=forbidden_per_constraint / (d * d),
        )
        got = (params.d, params.m_constraints, params.forbidden_per_constraint)
        if got != (d, m_constraints, forbidden_per_constraint):
            raise ValueError(f"counts {got} do not round-trip "
                             f"({d}, {m_constraints}, {forbidden_per_constraint})")
        return params


def phase_transition_params(n: int) -> ModelRbParams:
    """Parameters putting an n-variable instance at the phase transition."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return ModelRbParams(n=n, alpha=PHASE_ALPHA, r=PHASE_R, p=PHASE_P)


def _draw_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """One unordered distinct variable pair, uniform over all n(n-1)/2."""
    a = int(rng.integers(n))
    b = int(rng.integers(n - 1))
    if b >= a:
        b += 1
    return (a, b) if a < b else (b, a)


def _draw_disallowed(rng: np.random.Generator, d: int, q: int) -> np.ndarray:
    """q distinct value-pair codes out of d², without replacement."""
    return rng.permutation(d * d)[:q]


def check_sample_size(params: ModelRbParams) -> None:
    """Raise ValueError when sampling `params` would exceed a cap of
    `core.check_size` or MAX_DISALLOWED_PAIRS."""
    m, q = params.m_constraints, params.forbidden_per_constraint
    check_size(params.n, params.d, m)
    if m * q > MAX_DISALLOWED_PAIRS:
        raise ValueError(f"instance too large: {m * q} disallowed pairs m·q "
                         f"exceed the cap of {MAX_DISALLOWED_PAIRS}")


def _sample(params: ModelRbParams, seed: int,
            forced: bool) -> tuple[CspInstance, Optional[np.ndarray]]:
    """The one Model RB sampler; refuses oversized params before any draw.

    Forced: a uniform hidden assignment is drawn first, and any disallowed
    set that hits its value pair is fully redrawn (keeping the variable pair).
    """
    check_sample_size(params)
    n, d, m = params.n, params.d, params.m_constraints
    q = params.forbidden_per_constraint
    rng = np.random.Generator(np.random.PCG64(seed))
    hidden = rng.integers(0, d, size=n) if forced else None
    ends = np.empty((m, 2), dtype=np.int64)
    codes = np.empty((m, q), dtype=np.int64)
    for i in range(m):
        a, b = ends[i] = _draw_pair(rng, n)
        codes[i] = _draw_disallowed(rng, d, q)
        if hidden is not None:
            hidden_code = int(hidden[a]) * d + int(hidden[b])
            while (codes[i] == hidden_code).any():
                codes[i] = _draw_disallowed(rng, d, q)
    codes.sort(axis=1)
    return CspInstance._from_arrays(n, d, ends[:, 0], ends[:, 1],
                                    np.arange(m + 1) * q, codes), hidden


def generate(params: ModelRbParams, seed: int) -> CspInstance:
    """Sample a Model RB instance. Deterministic in (params, seed)."""
    return _sample(params, seed, forced=False)[0]


def generate_forced(params: ModelRbParams, seed: int) -> tuple[CspInstance, Assignment]:
    """Sample a forced-satisfiable instance plus its hidden solution, which is
    conflict-free by construction."""
    instance, hidden = _sample(params, seed, forced=True)
    return instance, Assignment.from_values(hidden.tolist())
