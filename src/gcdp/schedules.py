"""Paired noise schedules for the Gaussian and categorical chains.

A schedule holds per-step noise rates beta_t in (0, 1) for t = 1..T, one
sequence per modality, together with the derived retention rates
alpha_t = 1 - beta_t and their running products alphabar_t. alphabar_t is
the fraction of clean signal surviving to step t; a usable schedule drives
it below 1e-3 by t = T so the terminal state is effectively pure noise.

Arrays are indexed 0-based (index t-1 holds step t). alphabar at t = 0 is
1 by convention and is not stored.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

BETA_MAX = 0.999
TERMINAL_ALPHABAR = 1e-3
CONSISTENCY_RTOL = 1e-12


def accumulate(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derive (alpha, alphabar) from a beta sequence.

    alpha_t = 1 - beta_t, alphabar_t = prod_{s<=t} alpha_s. Rejects empty
    input and any beta outside (0, 1).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 1 or beta.size == 0:
        raise ValidationError("beta must be a nonempty 1-D sequence")
    if not np.all((beta > 0.0) & (beta < 1.0)):
        raise ValidationError("every beta must lie strictly inside (0, 1)")
    alpha = 1.0 - beta
    return alpha, np.cumprod(alpha)


def _cosine_raw_beta(total_steps: int, offset: float) -> np.ndarray:
    if total_steps < 1:
        raise ValidationError("total_steps must be >= 1")
    if not (0.0 < offset < 0.1):
        raise ValidationError("offset must lie in (0, 0.1)")
    t = np.arange(total_steps + 1, dtype=np.float64) / total_steps
    f = np.cos((t + offset) / (1.0 + offset) * np.pi / 2.0) ** 2
    return 1.0 - f[1:] / f[:-1]


def cosine_beta(total_steps: int, offset: float = 0.008) -> np.ndarray:
    """Beta sequence whose alphabar follows the squared-cosine profile.

    alphabar_t = f(t)/f(0) with f(t) = cos^2(((t/T + s)/(1 + s)) * pi/2);
    beta_t = 1 - f(t)/f(t-1), clipped to at most BETA_MAX. The final raw
    beta is 1 (f(T) = 0 up to rounding), so the clip always engages there.
    """
    return np.minimum(_cosine_raw_beta(total_steps, offset), BETA_MAX)


def power_coupled(beta_gauss: np.ndarray, p: float) -> np.ndarray:
    """Categorical betas as the p-th power of the Gaussian betas.

    p = 1 copies the Gaussian chain; p > 1 weakens the categorical noise
    pointwise (beta^p <= beta for beta < 1). Input betas lie in (0, 1];
    results are clipped into (0, BETA_MAX] after the power, so a raw
    schedule ending at beta = 1 ends at BETA_MAX for every p.
    """
    if not (p > 0.0) or not np.isfinite(p):
        raise ValidationError("power p must be a finite positive real")
    beta_gauss = np.asarray(beta_gauss, dtype=np.float64)
    if beta_gauss.size == 0 or not np.all((beta_gauss > 0.0) & (beta_gauss <= 1.0)):
        raise ValidationError("every beta must lie in (0, 1]")
    return np.minimum(beta_gauss**p, BETA_MAX)


@dataclass(frozen=True)
class NoiseSchedule:
    """Precomputed per-step rates for both chains; immutable after init.

    check_terminal=False skips the near-pure-noise requirement on
    alphabar_T, which short diagnostic schedules cannot meet.
    """

    beta_gauss: np.ndarray
    beta_cat: np.ndarray
    check_terminal: bool = True
    alpha_gauss: np.ndarray = field(init=False)
    alpha_cat: np.ndarray = field(init=False)
    alphabar_gauss: np.ndarray = field(init=False)
    alphabar_cat: np.ndarray = field(init=False)

    def __post_init__(self):
        bg = np.asarray(self.beta_gauss, dtype=np.float64)
        bc = np.asarray(self.beta_cat, dtype=np.float64)
        if bg.shape != bc.shape:
            raise ValidationError("beta_gauss and beta_cat must have equal length")
        ag, abg = accumulate(bg)
        ac, abc = accumulate(bc)
        if self.check_terminal and (abg[-1] >= TERMINAL_ALPHABAR or abc[-1] >= TERMINAL_ALPHABAR):
            raise ValidationError(
                f"alphabar at t=T must fall below {TERMINAL_ALPHABAR:g} on both chains "
                f"(got {abg[-1]:.3e}, {abc[-1]:.3e}); pass check_terminal=False for "
                "diagnostic schedules"
            )
        bg.setflags(write=False)
        bc.setflags(write=False)
        for name, arr in (
            ("beta_gauss", bg),
            ("beta_cat", bc),
            ("alpha_gauss", ag),
            ("alpha_cat", ac),
            ("alphabar_gauss", abg),
            ("alphabar_cat", abc),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def total_steps(self) -> int:
        return int(self.beta_gauss.shape[0])

    def _check_t(self, t: int, low: int = 1) -> int:
        t = int(t)
        if not (low <= t <= self.total_steps):
            raise ValidationError(f"timestep {t} outside [{low}, {self.total_steps}]")
        return t

    def abar_gauss(self, t: int) -> float:
        """alphabar^N at step t, with abar(0) = 1."""
        t = self._check_t(t, low=0)
        return 1.0 if t == 0 else float(self.alphabar_gauss[t - 1])

    def abar_cat(self, t: int) -> float:
        """alphabar^C at step t, with abar(0) = 1."""
        t = self._check_t(t, low=0)
        return 1.0 if t == 0 else float(self.alphabar_cat[t - 1])


def cosine_schedule(total_steps: int, offset: float = 0.008, p: float = 1.0) -> NoiseSchedule:
    """Standard schedule: cosine profile on the Gaussian chain, categorical
    chain power-coupled with exponent p (p = 1 makes the chains identical).

    The power applies to the raw cosine betas, before the BETA_MAX clip:
    powering the clipped final beta (0.999^3 = 0.997) would leave
    alphabar_cat(T) above the terminal bound for large p.
    """
    raw = _cosine_raw_beta(total_steps, offset)
    return NoiseSchedule(beta_gauss=np.minimum(raw, BETA_MAX), beta_cat=power_coupled(raw, p))
